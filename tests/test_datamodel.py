"""Dataset container, binary round trips, and the synthetic generator."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uda_reid.datamodel import (Dataset, Domain, IDENTITY_NONE, PSEUDO_OUTLIER,
                                SynthConfig, concat_datasets, config_fields,
                                config_from_kv, generate_synthetic, load_features,
                                parse_kv, save_features)
from uda_reid.errors import ConfigError, FormatError
from uda_reid.pipeline import StageConfig


def random_dataset(seed, n=12, d=6, unlabeled_target=False):
    rng = np.random.default_rng(seed)
    domains = rng.integers(0, 2, size=n).astype(np.uint8)
    identities = rng.integers(0, 5, size=n).astype(np.int32)
    if unlabeled_target and n:
        identities[domains == 1] = IDENTITY_NONE
    return Dataset(
        features=rng.normal(size=(n, d)).astype(np.float32),
        identities=identities,
        cameras=rng.integers(0, 4, size=n).astype(np.int32),
        domains=domains,
        pseudo=np.full(n, PSEUDO_OUTLIER, dtype=np.int32),
        name="t",
    )


# ---------------------------------------------------------------------------
# container semantics
# ---------------------------------------------------------------------------

def test_validate_accepts_well_formed():
    random_dataset(0).validate()


def test_validate_rejects_unlabeled_source():
    ds = random_dataset(1)
    ds.domains[:] = int(Domain.SOURCE)
    ds.identities[3] = IDENTITY_NONE
    with pytest.raises(ValueError, match="source"):
        ds.validate()


def test_validate_rejects_bad_sentinels_and_shapes():
    ds = random_dataset(2)
    ds.identities[0] = -3
    with pytest.raises(ValueError):
        ds.validate()

    ds = random_dataset(2)
    ds.pseudo[0] = -5
    with pytest.raises(ValueError):
        ds.validate()

    ds = random_dataset(2)
    ds.cameras[0] = -1
    with pytest.raises(ValueError):
        ds.validate()

    ds = random_dataset(2)
    ds.domains[0] = 7
    with pytest.raises(ValueError, match="domain"):
        ds.validate()

    ds = random_dataset(2)
    ds.features[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ds.validate()

    ds = random_dataset(2)
    ds.cameras = ds.cameras[:-1]
    with pytest.raises(ValueError, match="cameras"):
        ds.validate()


def test_with_pseudo_and_subset():
    ds = random_dataset(4)
    sub = ds.subset([2, 0])
    assert sub.n == 2
    assert np.array_equal(sub.features[0], ds.features[2])
    assert sub.identities[1] == ds.identities[0]


def test_concat_preserves_order_and_counts():
    a, b = random_dataset(5, n=3), random_dataset(6, n=2)
    joined = concat_datasets(a, b)
    assert joined.n == 5
    assert np.array_equal(joined.features[:3], a.features)
    assert np.array_equal(joined.identities[3:], b.identities)
    # domain histogram is conserved
    for dom in (0, 1):
        assert (joined.domains == dom).sum() == \
            (a.domains == dom).sum() + (b.domains == dom).sum()


def test_concat_empty_is_identity():
    a = random_dataset(7, n=4)
    empty = random_dataset(7, n=0)
    joined = concat_datasets(a, empty)
    assert joined.n == a.n
    assert np.array_equal(joined.features, a.features)


def test_concat_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        concat_datasets(random_dataset(8, d=4), random_dataset(8, d=5))


# ---------------------------------------------------------------------------
# binary format
# ---------------------------------------------------------------------------

def test_round_trip_bit_exact(tmp_path):
    ds = random_dataset(9, n=5, d=4)
    path = tmp_path / "ds.bin"
    save_features(path, ds)
    back = load_features(path)
    assert back.features.tobytes() == ds.features.tobytes()
    for col in ("identities", "cameras", "domains", "pseudo"):
        assert np.array_equal(getattr(back, col), getattr(ds, col))


def test_round_trip_empty(tmp_path):
    ds = random_dataset(10, n=0, d=8)
    path = tmp_path / "empty.bin"
    save_features(path, ds)
    back = load_features(path)
    assert back.n == 0 and back.d == 8


@settings(max_examples=30)
@given(seed=st.integers(0, 10**6), n=st.integers(0, 25), d=st.integers(1, 9))
def test_round_trip_property(tmp_path_factory, seed, n, d):
    ds = random_dataset(seed, n=n, d=d, unlabeled_target=True)
    path = tmp_path_factory.mktemp("rt") / "ds.bin"
    save_features(path, ds)
    back = load_features(path)
    assert back.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(back.identities, ds.identities)
    assert np.array_equal(back.domains, ds.domains)


def test_load_rejects_corruption(tmp_path):
    ds = random_dataset(11, n=3, d=2)
    path = tmp_path / "ds.bin"
    save_features(path, ds)
    blob = bytearray(path.read_bytes())

    bad = tmp_path / "magic.bin"
    bad.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(FormatError, match="magic") as err:
        load_features(bad)
    assert err.value.offset == 0

    bad.write_bytes(bytes(blob[:4]) + b"\x63\x00" + bytes(blob[6:]))
    with pytest.raises(FormatError, match="version") as err:
        load_features(bad)
    assert err.value.offset == 4

    bad.write_bytes(bytes(blob[:-3]))
    with pytest.raises(FormatError, match="truncated"):
        load_features(bad)

    bad.write_bytes(bytes(blob) + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_features(bad)

    corrupt = bytearray(blob)
    corrupt[14 + 3 * 4 + 3 * 4] = 9  # first domain tag
    bad.write_bytes(bytes(corrupt))
    with pytest.raises(FormatError, match="domain"):
        load_features(bad)

    corrupt = bytearray(blob)
    corrupt[-4 * 3 * 2:] = b"\xff\xff\xff\x7f" * 6  # features become NaN
    bad.write_bytes(bytes(corrupt))
    with pytest.raises(FormatError, match="finite"):
        load_features(bad)


def test_load_every_truncation_and_bit_flip(tmp_path):
    """Every truncation prefix of a small file raises ValueError.  Every
    single-bit flip raises ValueError from ``load_features`` or ``validate``,
    or loads a valid dataset that saves back to the flipped bytes: the format
    carries no checksum, so a flip to another legal value cannot be caught,
    but it is never misread.  No other exception escapes either way."""
    path = tmp_path / "ds.bin"
    save_features(path, random_dataset(11, n=4, d=2))
    blob = path.read_bytes()
    bad, back = tmp_path / "bad.bin", tmp_path / "back.bin"
    for size in range(len(blob)):
        bad.write_bytes(blob[:size])
        with pytest.raises(ValueError):
            load_features(bad).validate()
    raised = set()
    for pos in range(len(blob)):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[pos] ^= 1 << bit
            bad.write_bytes(bytes(flipped))
            try:
                save_features(back, load_features(bad).validate())
            except ValueError:
                raised.add((pos, bit))
                continue
            assert back.read_bytes() == bytes(flipped), (pos, bit)
    # a flip in the 14-byte header breaks the magic, the version or the sizes
    assert raised >= {(pos, bit) for pos in range(14) for bit in range(8)}


def test_load_rejects_truncated_header(tmp_path):
    path = tmp_path / "stub.bin"
    path.write_bytes(b"URD")
    with pytest.raises(FormatError, match="header"):
        load_features(path)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_generator_is_pure():
    cfg = SynthConfig(num_ids_source=4, num_ids_target=3, samples_per_id=5,
                      raw_dim=8, seed=7)
    first = generate_synthetic(cfg)
    second = generate_synthetic(cfg)
    for a, b in zip(first, second):
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.identities, b.identities)
        assert np.array_equal(a.cameras, b.cameras)


def test_generator_shapes_and_label_spaces():
    cfg = SynthConfig(num_ids_source=4, num_ids_target=3, samples_per_id=5,
                      raw_dim=8, seed=0)
    source, target, translated = generate_synthetic(cfg)
    assert source.n == 20 and target.n == 15 and translated.n == 20
    # ids contiguous per row block, and the two label spaces are disjoint
    assert np.array_equal(source.identities, np.repeat(np.arange(4), 5))
    assert np.array_equal(target.identities, np.repeat(np.arange(3) + 4, 5))
    assert np.array_equal(translated.identities, source.identities)
    assert np.array_equal(translated.cameras, source.cameras)
    # translated rows live in the target domain for normalization purposes
    assert np.all(source.domains == int(Domain.SOURCE))
    assert np.all(target.domains == int(Domain.TARGET))
    assert np.all(translated.domains == int(Domain.TARGET))


def test_translation_blend_endpoints_and_linearity():
    common = dict(num_ids_source=3, num_ids_target=3, samples_per_id=4,
                  raw_dim=6, seed=5)
    src0, _, tr0 = generate_synthetic(SynthConfig(translation_fidelity=0.0, **common))
    _, _, tr1 = generate_synthetic(SynthConfig(translation_fidelity=1.0, **common))
    _, _, tr_half = generate_synthetic(SynthConfig(translation_fidelity=0.5, **common))
    # the shift draws from its own stream, so without it the source rows are
    # the pre-shift rows of the same seed
    unshifted, _, _ = generate_synthetic(SynthConfig(shift_strength=0.0,
                                                     shift_offset=0.0, **common))

    # fidelity 0 reproduces the observed source bytes exactly
    assert tr0.features.tobytes() == src0.features.tobytes()
    # fidelity 1 undoes the affine shift exactly
    assert tr1.features.tobytes() == unshifted.features.tobytes()
    assert not np.allclose(tr1.features, src0.features, atol=1e-3)
    # intermediate fidelity interpolates linearly
    mid = 0.5 * (tr0.features.astype(np.float64) + tr1.features.astype(np.float64))
    assert np.allclose(tr_half.features, mid, atol=1e-3)


def test_zero_strength_shift_is_identity_map():
    cfg = SynthConfig(num_ids_source=3, num_ids_target=3, samples_per_id=4,
                      raw_dim=6, seed=2, shift_strength=0.0, shift_offset=0.0)
    source, _, translated = generate_synthetic(cfg)
    # no shift to undo, so the blend cannot move anything
    assert np.allclose(source.features, translated.features, atol=1e-5)


def test_synth_config_validation():
    with pytest.raises(ConfigError, match="translation_fidelity"):
        SynthConfig(translation_fidelity=1.5).validate()
    with pytest.raises(ConfigError, match="samples_per_id"):
        SynthConfig(samples_per_id=0).validate()
    with pytest.raises(ConfigError, match="cluster_spread"):
        SynthConfig(cluster_spread=-0.1).validate()
    with pytest.raises(ConfigError, match="'seed': must be >= 0, got -1"):
        SynthConfig(seed=-1).validate()


FLOAT_FIELDS = [(cls, name) for cls in (SynthConfig, StageConfig)
                for name, typ in config_fields(cls).items() if typ is float]


def test_float_fields_of_both_configs():
    assert len(FLOAT_FIELDS) == 14
    assert (SynthConfig, "shift_offset") in FLOAT_FIELDS
    assert (StageConfig, "lr_gamma") in FLOAT_FIELDS


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls,name", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_non_finite_float_field_is_a_config_error(cls, name, raw):
    """Every float field of both configs must be finite, whether set in
    code or from ``key = value`` text (flags and --config lines)."""
    with pytest.raises(ConfigError, match=f"'{name}': must be finite, got {raw}$"):
        cls(**{name: float(raw)}).validate()
    with pytest.raises(ConfigError, match=f"'{name}': must be finite, got {raw}$"):
        config_from_kv(cls, {name: raw})


# ---------------------------------------------------------------------------
# key = value parsing
# ---------------------------------------------------------------------------

def test_parse_kv():
    text = "a = 1\n# comment\n\n b=2  # trailing\nkey = spaced value\n"
    assert parse_kv(text) == {"a": "1", "b": "2", "key": "spaced value"}


def test_parse_kv_errors():
    with pytest.raises(ConfigError, match="line 1"):
        parse_kv("novalue\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_kv(" = 3\n")


def test_synth_config_from_kv():
    cfg = config_from_kv(SynthConfig, {"num_ids_source": "4",
                                       "translation_fidelity": "0.3"})
    assert cfg.num_ids_source == 4
    assert cfg.translation_fidelity == 0.3
    with pytest.raises(ConfigError, match="unknown"):
        config_from_kv(SynthConfig, {"bogus": "1"})
    with pytest.raises(ConfigError, match="cannot parse"):
        config_from_kv(SynthConfig, {"raw_dim": "wide"})
