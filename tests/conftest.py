import hypothesis
import pytest

# property tests run numeric kernels whose wall time varies with the draw;
# wall-clock deadlines only add flakiness on loaded machines
hypothesis.settings.register_profile(
    "package-default",
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("package-default")


@pytest.fixture
def student_stacks(monkeypatch):
    """Every stack of students that ``stage_mmt_plus`` builds during the
    test, in run order: a run builds its students with its one call of
    ``stack_params``.  Read a run's students with ``unstack_params``."""
    from uda_reid import pipeline

    stacks = []
    real_stack_params = pipeline.stack_params

    def recording(nets):
        stacks.append(real_stack_params(nets))
        return stacks[-1]

    monkeypatch.setattr(pipeline, "stack_params", recording)
    return stacks
