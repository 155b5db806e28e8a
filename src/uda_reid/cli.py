"""Command-line entry point: data synthesis, staged training, clustering,
re-ranking, evaluation, ensembling, and the gradient checker.

Conventions
-----------
Machine-readable results are printed to standard output as a single JSON
object; progress and diagnostics go to standard error.  Exit codes: 0 on
success, 1 on usage errors, 2 on data or format errors, 3 on numerical
failures (training divergence, gradient-check tolerance breach).  An output
naming an input or the other output exits 2 before any work (``_check_writes``).

``--threads N`` caps BLAS/OpenMP parallelism; N below 1 exits 2 before any
work starts.  The cap must be in place before numpy first loads, so this
module imports only the standard library at module scope and scans argv for
the flag before touching the rest of the package.
"""
from __future__ import annotations

import argparse
import contextlib
import enum
import json
import os
import sys
from dataclasses import replace
from inspect import signature

__all__ = ["main", "run"]

_EXPORTS = ("teacher1", "teacher2")  # stage_mmt_plus returns the teachers in this order
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting, and keeps human text off stdout."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")

    def print_help(self, file=None):
        super().print_help(file or sys.stderr)


def _apply_thread_cap(argv) -> None:
    threads = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            threads = argv[i + 1]
        elif arg.startswith("--threads="):
            threads = arg.split("=", 1)[1]
    if threads is None:
        return
    try:
        n = int(threads)
    except ValueError:
        return  # argparse reports the malformed value later
    if n < 1:
        raise ValueError(f"--threads must be >= 1, got {n}")
    if "numpy" not in sys.modules:
        for var in THREAD_VARS:
            os.environ[var] = str(n)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _note(text: str) -> None:
    sys.stderr.write(text + "\n")


# ---------------------------------------------------------------------------
# Shared flag groups
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, metavar="N",
                   help="cap BLAS/OpenMP worker threads (default: all cores)")


def _flag_type(name, typ):
    from .datamodel import parse_field

    def parse(raw):
        try:
            return parse_field(name, typ, raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _add_config_flags(p: argparse.ArgumentParser, cls, names=None) -> None:
    """One flag per text-settable field of config dataclass ``cls`` (or of
    its fields in ``names``), ``--lr-gamma`` for ``lr_gamma``, parsed by the
    field's type.  Unset flags stay None."""
    from .datamodel import config_fields

    for name, typ in config_fields(cls).items():
        if names is not None and name not in names:
            continue
        metavar = None
        if typ is bool:
            metavar = "{true,false}"
        elif isinstance(typ, enum.EnumMeta):
            metavar = "{" + ",".join(m.value for m in typ) + "}"
        elif typ == tuple[int, ...]:
            metavar = "N[,N...]"
        p.add_argument("--" + name.replace("_", "-"), type=_flag_type(name, typ),
                       default=None, metavar=metavar)


def _config(cls, args):
    """The ``cls`` config of the defaults, overridden by the ``--config``
    file's lines, then by every config flag given; validated once.  A field
    that the command has no flag for is an unknown key in the file too."""
    from .datamodel import config_fields, config_from_kv, parse_kv
    from .errors import ConfigError

    pairs = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            pairs = parse_kv(fh.read())
    for key in pairs:
        if key in config_fields(cls) and not hasattr(args, key):
            raise ConfigError(key, "unknown configuration key")
    flags = {name: getattr(args, name) for name in config_fields(cls)
             if getattr(args, name, None) is not None}
    return config_from_kv(cls, pairs, **flags)


def _add_train_flags(p: argparse.ArgumentParser, pretrain: bool = False) -> None:
    """The training commands' flags.  ``encoder_dim`` is pretraining's
    alone: the later stages keep the width of the encoder they load."""
    from .datamodel import config_fields
    from .pipeline import StageConfig

    p.add_argument("--config", metavar="FILE",
                   help="key=value config file; flags override its values")
    _add_config_flags(p, StageConfig, [name for name in config_fields(StageConfig)
                                       if pretrain or name != "encoder_dim"])
    p.add_argument("--log", metavar="FILE", default=None,
                   help="write per-epoch records as JSON lines")
    p.add_argument("--val", metavar="FILE", default=None,
                   help="labeled dataset evaluated after each epoch")


def _add_rerank_flags(p: argparse.ArgumentParser) -> None:
    """One flag per keyword default of ``rerank``, typed by its default."""
    from .retrieval import rerank

    for name, param in signature(rerank).parameters.items():
        if param.default is not param.empty:
            p.add_argument("--" + name, type=type(param.default), default=param.default)


_READS = ("config", "params", "params2", "data", "val", "source", "target", "query", "gallery")


def _synth_paths(out) -> list:
    """The files ``synth`` writes in its ``--out`` directory, one per dataset."""
    from .datamodel import SYNTH_NAMES

    return [os.path.join(out, f"{name}.bin") for name in SYNTH_NAMES]


def _check_writes(args) -> None:
    """Raise if ``--out`` or ``--log`` names a file that the command reads or
    that the other names; a file is its device and inode once it exists, else
    its resolved path.  ``synth``'s outputs are the files it writes in its
    ``--out`` directory.  ``cluster --out`` may name ``--data``: the in-place
    rewrite that ``cluster`` documents."""
    named, allowed = [], ("data", "out") if args.command == "cluster" else None
    for flag in _READS + ("out", "log"):
        value = getattr(args, flag, None)
        if (args.command, flag) == ("synth", "out"):
            value = _synth_paths(value)
        for path in value if isinstance(value, list) else filter(None, [value]):
            try:
                st = os.stat(path)
                key = st.st_dev, st.st_ino
            except OSError:
                key = os.path.realpath(path)
            for other, seen in named:
                if key == seen and flag not in _READS and (other, flag) != allowed:
                    raise ValueError(f"--{flag} and --{other} name the same file: {path}")
            named.append((flag, key))


def _load_dataset(path):
    from .datamodel import load_features

    return load_features(path).validate()


def _train(args, stage) -> dict:
    """Run ``stage(val_split) -> (params, log)``, write the params to
    ``--out`` and the log to ``--log``, and return the command's summary.
    ``--val`` is loaded and both paths are opened before the stage runs, so
    a bad file or a path that cannot be written fails first.  If anything
    fails, the files opened here that did not exist before are removed;
    appending nothing leaves a file unchanged."""
    from .encoder import save_params
    from .retrieval import split_query_gallery

    val_split = None if args.val is None else split_query_gallery(_load_dataset(args.val))
    created = []
    try:
        for path in filter(None, (args.out, args.log)):
            if not os.path.exists(path):
                created.append(path)
            open(path, "ab").close()
        params, log = stage(val_split)
        save_params(args.out, params)
        if args.log is not None:
            with open(args.log, "w", encoding="utf-8") as fh:
                fh.write(log.to_jsonl())
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    summary = {"command": args.command, "stage": log.stage, "seed": log.seed,
               "epochs": len(log.records), "skipped_epochs": log.skipped_epochs,
               "params": str(args.out)}
    if log.final_val_map is not None:
        summary["final_val_map"] = round(log.final_val_map, 6)
    return summary


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> dict:
    from .datamodel import SynthConfig, generate_synthetic, save_features

    cfg = _config(SynthConfig, args)
    os.makedirs(args.out, exist_ok=True)
    paths = {}
    for path, ds in zip(_synth_paths(args.out), generate_synthetic(cfg)):
        save_features(path, ds)
        paths[ds.name] = {"path": path, "rows": ds.n, "dim": ds.d}
        _note(f"wrote {path} ({ds.n} rows)")
    return {"command": "synth", "seed": cfg.seed, "datasets": paths}


def _cmd_pretrain(args) -> dict:
    from .pipeline import StageConfig, stage_pretrain

    cfg = _config(StageConfig, args)
    train = _load_dataset(args.data)
    summary = _train(args, lambda val_split: stage_pretrain(train, cfg, val_split=val_split))
    _note(f"pretrained {cfg.epochs} epochs on {args.data} -> {args.out}")
    return summary


def _cmd_baseline(args) -> dict:
    from .encoder import load_params
    from .pipeline import StageConfig, stage_baseline

    cfg = _config(StageConfig, args)
    pretrained = load_params(args.params)
    target = _load_dataset(args.data)
    summary = _train(args, lambda val_split: stage_baseline(pretrained, target, cfg,
                                                            val_split=val_split))
    _note(f"self-trained {cfg.epochs} epochs on {args.data} -> {args.out}")
    return summary


def _cmd_mmtplus(args) -> dict:
    from .encoder import load_params
    from .pipeline import StageConfig, stage_mmt_plus

    cfg = _config(StageConfig, args)
    pretrained = load_params(args.params)
    pretrained2 = load_params(args.params2) if args.params2 else None
    source = _load_dataset(args.source)
    target = _load_dataset(args.target)

    def train(val_split):
        teachers, log = stage_mmt_plus(pretrained, source, target, cfg,
                                       val_split=val_split, pretrained2=pretrained2)
        return teachers[_EXPORTS.index(args.export)], log

    summary = _train(args, train)
    _note(f"mean-teacher training done; exported {args.export} -> {args.out}")
    return {**summary, "export": args.export}


def _cmd_cluster(args) -> dict:
    from .datamodel import save_features
    from .encoder import load_params
    from .pipeline import StageConfig
    from .pseudolabel import relabel_epoch

    cfg = _config(StageConfig, args)
    params = load_params(args.params)
    ds = _load_dataset(args.data)
    labeling = relabel_epoch(ds, params, k=cfg.k, eps=cfg.eps, min_pts=cfg.min_pts)
    out = args.out if args.out else args.data
    save_features(out, ds)
    verb = "copied to" if args.out else "rewrote pseudo labels in"
    _note(f"{verb} {out}: {labeling.num_clusters} clusters, "
          f"{labeling.num_outliers} outliers")
    return {"command": "cluster", "data": str(out),
            "num_clusters": labeling.num_clusters,
            "num_outliers": labeling.num_outliers}


def _encoded_split(args, labelled):
    """The query/gallery split and its features for retrieval: encoder
    outputs when --params is given (L2-normalized), stored features otherwise.
    When ``labelled``, a row with no identity fails before anything is encoded."""
    import numpy as np

    from .retrieval import QueryGallerySplit, require_identities

    split = QueryGallerySplit(query=_load_dataset(args.query),
                              gallery=_load_dataset(args.gallery))
    split.validate()
    if labelled:
        require_identities(split.query.identities, "query")
        require_identities(split.gallery.identities, "gallery")
    if args.params:
        from .encoder import load_params
        from .pipeline import encode_split

        return (split, *encode_split(load_params(args.params), split))
    return (split, np.asarray(split.query.features, dtype=np.float64),
            np.asarray(split.gallery.features, dtype=np.float64))


def _cmd_rerank(args) -> dict:
    import numpy as np

    from .retrieval import check_rerank_args, rerank

    check_rerank_args(args.k1, args.k2, args.lam)
    _, q, g = _encoded_split(args, labelled=False)
    dist = rerank(q, g, k1=args.k1, k2=args.k2, lam=args.lam)
    with open(args.out, "wb") as fh:  # a path: np.save would add ".npy"
        np.save(fh, dist)
    _note(f"wrote {dist.shape[0]}x{dist.shape[1]} distance matrix to {args.out}")
    return {"command": "rerank", "out": str(args.out),
            "shape": list(dist.shape), "k1": args.k1, "k2": args.k2,
            "lam": args.lam}


def _cmd_evaluate(args) -> dict:
    from .numerics import cdist
    from .retrieval import (camera_adjust, check_cam_weight, check_rerank_args,
                            check_top_limit, evaluate, rerank)

    # the flags are checked before any input is read
    if args.rerank:
        check_rerank_args(args.k1, args.k2, args.lam)
    if args.cam_weight is not None:
        check_cam_weight(args.cam_weight)
    check_top_limit(args.top)
    split, q, g = _encoded_split(args, labelled=True)
    dist = rerank(q, g, k1=args.k1, k2=args.k2, lam=args.lam) if args.rerank else cdist(q, g)
    if args.cam_weight is not None:
        dist = camera_adjust(dist, split.query.cameras, split.gallery.cameras,
                             weight=args.cam_weight)
    report = evaluate(dist, split.query.identities, split.query.cameras,
                      split.gallery.identities, split.gallery.cameras,
                      top_limit=args.top)
    _note(f"evaluated {split.query.n} queries against {split.gallery.n} "
          f"gallery rows")
    return {"command": "evaluate", "rerank": bool(args.rerank),
            **report.to_dict()}


def _cmd_ensemble(args) -> dict:
    from .datamodel import save_features
    from .encoder import encode_dataset, load_params
    from .retrieval import ensemble_features

    ds = _load_dataset(args.data)
    parts = [encode_dataset(load_params(p), ds) for p in args.params]
    combined = ensemble_features(parts)
    save_features(args.out, replace(ds, features=combined))
    _note(f"ensembled {len(parts)} encoders -> {args.out} "
          f"({combined.shape[0]}x{combined.shape[1]})")
    return {"command": "ensemble", "out": str(args.out),
            "encoders": len(parts), "dim": int(combined.shape[1])}


def _cmd_gradcheck(args) -> dict:
    from .gradcheck import run_gradcheck

    if not 0.0 < args.tol < float("inf"):
        raise ValueError(f"--tol must be finite and > 0, got {args.tol}")
    results = run_gradcheck(trials=args.trials, seed=args.seed)
    worst = max(results.values())
    for name in sorted(results):
        _note(f"{name}: max relative error {results[name]:.3e}")
    return {"command": "gradcheck", "trials": args.trials, "tolerance": args.tol,
            "worst": worst, "kernels": results, "passed": bool(worst < args.tol)}


# ---------------------------------------------------------------------------
# Parser assembly and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="uda-reid", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    from . import __version__
    from .datamodel import SynthConfig
    from .pipeline import StageConfig
    from .retrieval import evaluate

    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    _add_common(parser)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("synth", help="generate the synthetic two-domain benchmark")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--config", metavar="FILE")
    _add_config_flags(p, SynthConfig)
    _add_common(p)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("pretrain", help="supervised training on labeled features")
    p.add_argument("--data", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    _add_train_flags(p, pretrain=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_pretrain)

    p = sub.add_parser("baseline",
                       help="clustering-based self-training from a pretrained encoder")
    p.add_argument("--params", required=True, metavar="FILE")
    p.add_argument("--data", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    _add_train_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_baseline)

    p = sub.add_parser("mmtplus",
                       help="mutual mean-teacher training with joint-domain batches")
    p.add_argument("--params", required=True, metavar="FILE",
                   help="pretrained encoder (student 1 init)")
    p.add_argument("--params2", metavar="FILE",
                   help="optional separate init for student 2")
    p.add_argument("--source", required=True, metavar="FILE")
    p.add_argument("--target", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--export", choices=_EXPORTS, default=_EXPORTS[0])
    _add_train_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_mmtplus)

    p = sub.add_parser("cluster",
                       help="rewrite a dataset's pseudo-label column in place "
                            "(use --out to write a copy instead)")
    p.add_argument("--params", required=True, metavar="FILE")
    p.add_argument("--data", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE",
                   help="write the relabeled copy here and leave --data untouched")
    _add_config_flags(p, StageConfig, names=("k", "eps", "min_pts"))
    _add_common(p)
    p.set_defaults(handler=_cmd_cluster)

    p = sub.add_parser("rerank",
                       help="write re-ranked query/gallery distances as .npy")
    p.add_argument("--query", required=True, metavar="FILE")
    p.add_argument("--gallery", required=True, metavar="FILE")
    p.add_argument("--params", metavar="FILE",
                   help="encode with this encoder first (else stored features)")
    p.add_argument("--out", required=True, metavar="FILE")
    _add_rerank_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_rerank)

    p = sub.add_parser("evaluate", help="mAP/CMC under the retrieval protocol")
    p.add_argument("--query", required=True, metavar="FILE")
    p.add_argument("--gallery", required=True, metavar="FILE")
    p.add_argument("--params", metavar="FILE")
    p.add_argument("--rerank", action="store_true")
    _add_rerank_flags(p)
    p.add_argument("--cam-weight", type=float, nargs="?", const=0.1,
                   default=None, metavar="W",
                   help="subtract W * camera-feature distance (default W .1)")
    p.add_argument("--top", type=int,
                   default=signature(evaluate).parameters["top_limit"].default)
    _add_common(p)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("ensemble",
                       help="concatenate normalized encodings from several encoders")
    p.add_argument("--data", required=True, metavar="FILE")
    p.add_argument("--params", required=True, action="append", metavar="FILE",
                   help="repeat for each encoder")
    p.add_argument("--out", required=True, metavar="FILE")
    _add_common(p)
    p.set_defaults(handler=_cmd_ensemble)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of every hand-derived "
                            "gradient the trainer calls")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    _add_common(p)
    p.set_defaults(handler=_cmd_gradcheck)

    return parser


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _apply_thread_cap(argv)
        parser = _build_parser()
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help(sys.stderr)
            return 1
        _check_writes(args)
        payload = args.handler(args)
    except _UsageError as exc:
        _note(str(exc))
        _note("run with --help for usage")
        return 1
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:  # a bad path; format, config, data
        _note(f"error: {exc}")
        return 2
    except RuntimeError as exc:  # divergence guard
        _note(f"error: {exc}")
        return 3

    _emit(payload)
    return 3 if payload.get("passed") is False else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
