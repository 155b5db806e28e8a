"""Datasets, the binary feature-file format, the synthetic two-domain
generator, and the text parser shared by every config dataclass.

A dataset is a dense float32 feature table plus four parallel per-row
metadata columns (identity, camera, domain tag, pseudo label).  Sentinels
follow the on-disk format: identity -1 means unlabeled, pseudo -2 means
clustering marked the row as an outlier.

Synthetic benchmark layout
--------------------------
Each identity is a Gaussian cluster in a ``raw_dim``-dimensional raw space.
Identity centers live on the first half of the dimensions ("signal" axes);
the second half carries identity-free nuisance: isotropic noise plus a
per-camera offset, both scaled by ``cluster_spread``.  A weaker camera
component also leaks into the signal axes, so cross-camera retrieval needs
a handful of directions nulled inside the identity-bearing subspace too.
Nearest-neighbor retrieval on raw features is therefore mediocre, while a
trained linear projection that suppresses the nuisance structure retrieves
almost perfectly.
Source rows are additionally pushed through an invertible affine map
``x -> A x + b``, so a projection fitted on source data suppresses the
wrong axes for target-domain rows.  The "translated" dataset blends source
rows a fraction ``translation_fidelity`` of the way back to their pre-shift
positions, standing in for learned source-to-target translation.
"""
from __future__ import annotations

import enum
import math
import struct
import typing
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, FormatError

IDENTITY_NONE = -1
PSEUDO_OUTLIER = -2

# Binary feature format, all little-endian: magic "URDE", u16 version,
# u32 n, u32 d, then one section of n values per metadata column below, in
# this order and on-disk dtype (n i32 identities, n i32 cameras, n u8 domain
# tags, n i32 pseudo labels), then the n*d f32 feature table.  A Dataset
# holds each column in the same dtype.
MAGIC = b"URDE"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHII")
COLUMNS = {"identities": np.dtype("<i4"), "cameras": np.dtype("<i4"),
           "domains": np.dtype("<u1"), "pseudo": np.dtype("<i4")}

# Nuisance model of the synthetic generator, relative to cluster_spread.
SIGNAL_NOISE = 0.25
NUISANCE_NOISE = 2.5
CAMERA_OFFSET = 1.5
CAMERA_SIGNAL = 0.9

SYNTH_NAMES = ("source", "target", "translated")  # generate_synthetic's datasets, in order


class Domain(enum.IntEnum):
    SOURCE = 0
    TARGET = 1


@dataclass
class Dataset:
    features: np.ndarray   # (n, d) float32
    identities: np.ndarray  # (n,) int32, IDENTITY_NONE = unlabeled
    cameras: np.ndarray     # (n,) int32
    domains: np.ndarray     # (n,) uint8, Domain values
    pseudo: np.ndarray      # (n,) int32, PSEUDO_OUTLIER = no cluster

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float32)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        for col, dtype in COLUMNS.items():
            setattr(self, col, np.asarray(getattr(self, col), dtype=dtype))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def validate(self):
        n, d = self.features.shape
        if d < 1:
            raise ValueError("feature dimension must be >= 1")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        for col in COLUMNS:
            shape = getattr(self, col).shape
            if shape != (n,):
                raise ValueError(f"{col} has shape {shape}, expected ({n},)")
        if np.any(self.identities < IDENTITY_NONE):
            raise ValueError("identity labels below the NONE sentinel")
        if np.any(self.cameras < 0):
            raise ValueError("camera ids must be >= 0")
        if not np.all(np.isin(self.domains, list(Domain))):
            raise ValueError("domain tags must be 0 (source) or 1 (target)")
        if np.any(self.pseudo < PSEUDO_OUTLIER):
            raise ValueError("pseudo labels below the OUTLIER sentinel")
        src = self.domains == int(Domain.SOURCE)
        if np.any(self.identities[src] == IDENTITY_NONE):
            raise ValueError("source rows must carry ground-truth identities")
        return self

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(features=self.features[idx],
                       **{col: getattr(self, col)[idx] for col in COLUMNS})


def concat_datasets(a: Dataset, b: Dataset) -> Dataset:
    """Rows of ``a`` followed by rows of ``b``; metadata carried through untouched."""
    if a.d != b.d:
        raise ValueError(f"feature dimension mismatch: {a.d} vs {b.d}")
    return Dataset(features=np.concatenate([a.features, b.features], axis=0),
                   **{col: np.concatenate([getattr(a, col), getattr(b, col)])
                      for col in COLUMNS})


# ---------------------------------------------------------------------------
# Binary feature format; the layout comment sits above ``COLUMNS``
# ---------------------------------------------------------------------------

def save_features(path, ds: Dataset) -> None:
    ds.validate()
    n, d = ds.features.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, n, d))
        for col, dtype in COLUMNS.items():
            fh.write(getattr(ds, col).astype(dtype).tobytes())
        fh.write(np.ascontiguousarray(ds.features, dtype="<f4").tobytes())


def load_features(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FormatError(len(blob), "truncated header")
    magic, version, n, d = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise FormatError(0, f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(4, f"unsupported version {version}")
    if d < 1:
        raise FormatError(10, "feature dimension must be >= 1")

    row_bytes = sum(dtype.itemsize for dtype in COLUMNS.values()) + 4 * d
    expected = _HEADER.size + n * row_bytes
    if len(blob) < expected:
        raise FormatError(len(blob), f"truncated payload; expected {expected} bytes")
    if len(blob) > expected:
        raise FormatError(expected, "trailing data after payload")

    columns, pos = {}, _HEADER.size
    for col, dtype in COLUMNS.items():
        columns[col] = np.frombuffer(blob, dtype=dtype, count=n, offset=pos).copy()
        if col == "domains":
            bad = np.flatnonzero(~np.isin(columns[col], list(Domain)))
            if bad.size:
                raise FormatError(pos + int(bad[0]), f"invalid domain tag {columns[col][bad[0]]}")
        pos += dtype.itemsize * n
    feats = np.frombuffer(blob, dtype="<f4", count=n * d, offset=pos)
    bad = np.flatnonzero(~np.isfinite(feats))
    if bad.size:
        raise FormatError(pos + 4 * int(bad[0]), "non-finite feature value")
    return Dataset(features=feats.reshape(n, d).copy(), **columns).validate()


# ---------------------------------------------------------------------------
# Synthetic two-domain generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    num_ids_source: int = 32
    num_ids_target: int = 32
    samples_per_id: int = 12
    raw_dim: int = 32
    cluster_spread: float = 1.0
    translation_fidelity: float = 0.55  # gamma: 1 fully undoes the domain shift
    cameras: int = 5
    seed: int = 0
    shift_strength: float = 1.0         # rotation/scale intensity; 0 -> identity map
    shift_offset: float = 1.0           # offset magnitude; 0 -> zero offset

    def __post_init__(self):
        check_finite_floats(self)
        for fname in ("num_ids_source", "num_ids_target", "samples_per_id", "raw_dim", "cameras"):
            v = getattr(self, fname)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ConfigError(fname, f"must be a positive integer, got {v!r}")
        if not 0.0 <= self.translation_fidelity <= 1.0:
            raise ConfigError("translation_fidelity", f"must be in [0, 1], got {self.translation_fidelity}")
        for fname in ("cluster_spread", "shift_strength"):
            if getattr(self, fname) < 0:
                raise ConfigError(fname, f"must be >= 0, got {getattr(self, fname)}")
        if self.seed < 0:
            raise ConfigError("seed", f"must be >= 0, got {self.seed}")


def _block_rotation(rng, d: int, lo: float, hi: float) -> np.ndarray:
    """Product of two rounds of plane rotations over random axis pairs in a block."""
    rot = np.eye(d)
    for _ in range(2):
        perm = rng.permutation(d)
        angles = rng.uniform(lo, hi, size=d // 2)
        for k in range(d // 2):
            i, j = perm[2 * k], perm[2 * k + 1]
            c, sn = np.cos(angles[k]), np.sin(angles[k])
            g = np.eye(d)
            g[i, i] = c
            g[j, j] = c
            g[i, j] = -sn
            g[j, i] = sn
            rot = g @ rot
    return rot


def _domain_shift(cfg: SynthConfig, rng):
    """Invertible affine map built from plane rotations, per-axis scaling, and an offset.

    Rotations act within the signal block and within the nuisance block
    separately: the shift restyles each subspace without swapping their
    roles, so identity-bearing content stays in the same coordinates range.
    Strength 0 yields the exact identity so the no-shift case is expressible.
    """
    d = cfg.raw_dim
    signal = max(1, d // 2)
    s = cfg.shift_strength
    # moderate angle range: a near-90 degree plane rotation swaps basis axes
    # outright and makes instance difficulty swing wildly between seeds
    a = np.eye(d)
    a[:signal, :signal] = _block_rotation(rng, signal, 0.2 * np.pi * s, 0.4 * np.pi * s)
    a[signal:, signal:] = _block_rotation(rng, d - signal, 0.2 * np.pi * s, 0.4 * np.pi * s)
    scale = np.exp(rng.normal(0.0, 0.2, size=d) * s)
    a = a @ np.diag(scale)
    b = rng.normal(0.0, 1.0, size=d) * cfg.shift_offset
    return a, b


def generate_synthetic(cfg: SynthConfig):
    """Build (source, target, translated) datasets; pure function of the config."""
    d = cfg.raw_dim
    signal = max(1, d // 2)

    rng_shift = np.random.default_rng([cfg.seed, 0])
    rng_centers = np.random.default_rng([cfg.seed, 1])
    rng_source = np.random.default_rng([cfg.seed, 2])
    rng_target = np.random.default_rng([cfg.seed, 3])
    rng_cams = np.random.default_rng([cfg.seed, 4])

    a, b = _domain_shift(cfg, rng_shift)

    def centers(num_ids):
        c = np.zeros((num_ids, d))
        c[:, :signal] = rng_centers.normal(0.0, 1.0, size=(num_ids, signal))
        return c

    # Camera offsets live mostly on nuisance axes, but bleed into the signal
    # block: cross-camera matching then needs those few directions nulled
    # inside the identity-bearing subspace, and in observed source coordinates
    # that subspace sits rotated, so the skill does not transfer for free.
    cam_offsets = np.zeros((cfg.cameras, d))
    cam_offsets[:, signal:] = rng_centers.normal(
        0.0, CAMERA_OFFSET * cfg.cluster_spread, size=(cfg.cameras, d - signal))
    cam_offsets[:, :signal] = rng_centers.normal(
        0.0, CAMERA_SIGNAL * cfg.cluster_spread, size=(cfg.cameras, signal))

    noise_scale = np.full(d, NUISANCE_NOISE * cfg.cluster_spread)
    noise_scale[:signal] = SIGNAL_NOISE * cfg.cluster_spread

    def raw_cluster(center_block, rng, id_offset):
        num_ids = center_block.shape[0]
        n = num_ids * cfg.samples_per_id
        idents = np.repeat(np.arange(num_ids, dtype=np.int32) + id_offset, cfg.samples_per_id)
        cams = rng_cams.integers(0, cfg.cameras, size=n).astype(np.int32)
        raws = np.repeat(center_block, cfg.samples_per_id, axis=0)
        raws = raws + rng.normal(0.0, 1.0, size=(n, d)) * noise_scale
        raws = raws + cam_offsets[cams]
        return raws, idents, cams

    src_raw, src_ids, src_cams = raw_cluster(centers(cfg.num_ids_source), rng_source, 0)
    tgt_raw, tgt_ids, tgt_cams = raw_cluster(centers(cfg.num_ids_target), rng_target, cfg.num_ids_source)

    src_obs = src_raw @ a.T + b
    gamma = cfg.translation_fidelity
    translated_feats = (1.0 - gamma) * src_obs + gamma * src_raw

    def build(feats, idents, cams, domain):
        n = len(idents)
        return Dataset(
            features=feats.astype(np.float32),
            identities=idents,
            cameras=cams,
            domains=np.full(n, int(domain), dtype=np.uint8),
            pseudo=np.full(n, PSEUDO_OUTLIER, dtype=np.int32),
        ).validate()

    parts = ((src_obs, src_ids, src_cams, Domain.SOURCE),
             (tgt_raw, tgt_ids, tgt_cams, Domain.TARGET),
             (translated_feats, src_ids, src_cams, Domain.TARGET))
    return tuple(build(*part) for part in parts)


# ---------------------------------------------------------------------------
# Config text: ``key = value`` files and command-line flags.  The fields of a
# config dataclass and their types are the schema for both.
# ---------------------------------------------------------------------------

def parse_kv(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}", "empty key")
        out[key] = value.strip()
    return out


_TEXT_TYPES = (int, float, bool, tuple[int, ...])


def config_fields(cls) -> dict:
    """Name -> type of each field of config dataclass ``cls`` that text can
    set: int, float, bool, an enum, or a tuple of ints."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)
            if hints[f.name] in _TEXT_TYPES or isinstance(hints[f.name], enum.EnumMeta)}


def check_finite_floats(cfg) -> None:
    """ConfigError naming the first float field of config ``cfg`` that is
    NaN or infinite."""
    for name, typ in config_fields(type(cfg)).items():
        if typ is float and not math.isfinite(getattr(cfg, name)):
            raise ConfigError(name, f"must be finite, got {getattr(cfg, name)}")


def parse_field(name: str, typ, raw: str):
    """The value of config field ``name`` of type ``typ`` written as ``raw``;
    ConfigError names the field when the text does not parse."""
    if typ is bool:
        if raw.lower() not in ("true", "false", "0", "1"):
            raise ConfigError(name, f"expected boolean, got {raw!r}")
        return raw.lower() in ("true", "1")
    if isinstance(typ, enum.EnumMeta):
        try:
            return typ(raw)
        except ValueError:
            raise ConfigError(name, f"unknown {name.replace('_', ' ')} {raw!r}") from None
    try:
        if typ == tuple[int, ...]:
            return tuple(int(v) for v in raw.split(","))
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(name, f"cannot parse {raw!r}: {exc}") from None


def config_from_kv(cls, pairs: dict, **overrides):
    """The ``cls`` config of its defaults, then ``pairs`` parsed from text,
    then the typed ``overrides``; validated once, by its constructor."""
    types = config_fields(cls)
    kwargs = {}
    for key, raw in pairs.items():
        if key not in types:
            raise ConfigError(key, "unknown configuration key")
        kwargs[key] = parse_field(key, types[key], raw)
    return cls(**{**kwargs, **overrides})
