"""Seeded Gaussian random Fourier data on the torus.

A sample is ``u0(x) = v0(x) + sum_n g_n / sqrt(1 + |n|^(2 alpha)) e^{inx}``
truncated to ``|n| <= max_mode``, where the ``g_n`` are i.i.d. complex
Gaussians with ``E|g_n|^2 = gaussian_scale``. ``alpha = 0`` gives truncated
white noise; ``alpha = 1`` the massive free field.

Sampling uses counter-based Philox streams keyed by (seed, sample index),
with each mode's pair of normals drawn at a fixed position in the stream
(order ``0, +1, -1, +2, -2, ...``). The coefficient at mode ``n`` therefore
depends only on the seed and ``n``: samples are reproducible under any
parallel iteration order, and truncations are nested (the same draw at
``max_mode = 8`` and ``max_mode = 64`` agrees on the common band).
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from . import field as fld
from .field import SpecFieldError
from ._kernels import philox_streams
from .serialization import field_coeffs_dict
from .wick import renormalization_constant


@dataclass(frozen=True)
class RandomDataSpec:
    alpha: float
    max_mode: int
    seed: int
    offset: fld.TorusField | None = None
    gaussian_scale: float = 1.0

    def __post_init__(self):
        if not (self.alpha >= 0 and math.isfinite(self.alpha)):
            raise SpecFieldError("alpha", f"alpha must be finite and >= 0 (got {self.alpha})")
        # from 2**58 on, the 4 max_mode + 2 normals of a sample pass numpy's largest array
        if fld.require_integer("max_mode", self.max_mode, 0) >= 2**58:
            raise SpecFieldError("max_mode", f"max_mode {self.max_mode} is too large")
        fld.require_seed(self.seed)
        if not (self.gaussian_scale >= 0 and math.isfinite(self.gaussian_scale)):
            raise SpecFieldError("gaussian_scale", "gaussian_scale must be finite and >= 0 "
                                 f"(got {self.gaussian_scale})")
        if self.offset is not None and self.offset.max_mode > self.max_mode:
            raise SpecFieldError("offset", "offset must be band-limited to max_mode")

    def to_dict(self) -> dict:
        d = {
            "alpha": self.alpha, "max_mode": self.max_mode, "seed": int(self.seed),
            "gaussian_scale": self.gaussian_scale,
        }
        if self.offset is not None:
            d["offset"] = field_coeffs_dict(self.offset)
        return d


# the types of a valid index: bool and np.bool_ are neither
_INDEX_TYPES = frozenset([int] + [np.dtype(c).type for c in np.typecodes["AllInteger"]])

# Normals drawn per block by ``sample_ensemble`` and ``regularity_profile``:
# 512 KiB of float64 at any band, so that an ensemble costs a bounded amount of
# memory over a single sample, while a block is large enough to amortise the
# per-call overhead of the draw.
_BLOCK_NORMALS = 2**16


def _draw_positions(max_mode: int) -> np.ndarray:
    """Stream position of the first normal for each mode, ordered -N..N."""
    n = np.arange(-max_mode, max_mode + 1)
    pos = np.where(n > 0, 4 * n - 2, -4 * n)
    pos[n == 0] = 0
    return pos


def covariance_weights(alpha: float, max_mode: int) -> np.ndarray:
    """1 / sqrt(1 + |n|^(2 alpha)) for n = -max_mode..max_mode."""
    n = np.abs(np.arange(-max_mode, max_mode + 1, dtype=np.float64))
    return 1.0 / np.sqrt(1.0 + n ** (2.0 * alpha))


@contextmanager
def _band_sized(spec: RandomDataSpec):
    """Around the making of arrays the size of the band: a band numpy refuses or
    cannot allocate raises ``SpecFieldError`` naming ``max_mode``."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise SpecFieldError("max_mode", f"max_mode {spec.max_mode} is too large ({exc})") \
            from None


def _normals(spec: RandomDataSpec, indices) -> np.ndarray:
    """Row r: the first 2(2N+1) normals of the Philox stream (seed, indices[r])."""
    with _band_sized(spec):
        out = np.empty((len(indices), 2 * (2 * spec.max_mode + 1)))
    for row, gen in zip(out, philox_streams(spec.seed, indices)):
        gen.standard_normal(out=row)
    return out


def _gaussians(spec: RandomDataSpec, indices) -> np.ndarray:
    # a mode's pair of normals sits at an even stream position, so it is one
    # complex value of the block viewed as complex
    z = _normals(spec, indices).view(np.complex128)
    # take, not z[:, cols]: fancy indexing along the last axis may return an
    # F-ordered array, and the block must be C-ordered
    g = np.take(z, _draw_positions(spec.max_mode) // 2, axis=1)
    g *= np.sqrt(spec.gaussian_scale / 2.0)
    return g


def sample_block(spec: RandomDataSpec, indices) -> np.ndarray:
    """Coefficients of ``sample(spec, k)`` for each ``k`` in ``indices``.

    ``indices`` is a sequence of ints in [0, 2**64): any order, gaps and
    repeats allowed. Anything else raises a ValueError that names the first
    bad index, found from the ends of a ``range`` or else from one pass in C
    each over the element types, the min and the max. Returns a C-contiguous
    complex array of shape ``(len(indices), 2 * max_mode + 1)`` whose row r
    is bit-identical to ``sample(spec, indices[r]).coeffs``. No
    ``TorusField`` is built.
    """
    ends = [indices[0], indices[-1]] if isinstance(indices, range) and indices else indices
    if not (isinstance(indices, range) or set(map(type, indices)) <= _INDEX_TYPES) \
            or len(ends) and not (min(ends) >= 0 and max(ends) < 2**64):
        bad = next(k for k in indices if type(k) not in _INDEX_TYPES or not 0 <= k < 2**64)
        raise SpecFieldError("index",
                             f"index must lie in [0, 2**64) and be an integer (got {bad!r})")
    coeffs = _gaussians(spec, indices)
    coeffs *= covariance_weights(spec.alpha, spec.max_mode)
    if spec.offset is not None:
        coeffs += spec.offset.padded_to(spec.max_mode).coeffs
    return coeffs


def sample(spec: RandomDataSpec, index: int = 0) -> fld.TorusField:
    """One random field; ``index`` in [0, 2**64) selects a member of the ensemble."""
    return fld.TorusField(sample_block(spec, [index])[0], spec.max_mode)


def _block_rows(spec: RandomDataSpec) -> int:
    return max(1, _BLOCK_NORMALS // (2 * (2 * spec.max_mode + 1)))


def _blocks(spec: RandomDataSpec, count: int):
    """(first index, sample_block) pairs covering indices 0..count-1; the first
    block is drawn here, so a band numpy cannot allocate raises here."""
    rows = _block_rows(spec)
    blocks = ((start, sample_block(spec, range(start, min(start + rows, count))))
              for start in range(0, count, rows))
    return chain(list(islice(blocks, 1)), blocks)


def sample_ensemble(spec: RandomDataSpec, count: int):
    """Iterator over ``count`` independent samples (indices 0..count-1).

    Member k equals ``sample(spec, k)``. Its coefficients are a read-only
    view of a row of the sampler's block, not a copy, so a member kept alive
    keeps its block (at most ``_BLOCK_NORMALS`` normals) alive too. The
    first block is drawn here, so a ``count`` that is not an integer >= 0,
    or a band that numpy cannot allocate, raises here, not at the first
    member.
    """
    return _members(spec, _blocks(spec, fld.require_integer("count", count, 0)))


def _members(spec: RandomDataSpec, blocks):
    for _, block in blocks:
        block.setflags(write=False)
        for row in block:
            yield fld.TorusField._trusted(row, spec.max_mode)


def expected_mean_intensity(spec: RandomDataSpec) -> float:
    """E[mu(u0)] = gaussian_scale * sum 1/(1+|n|^(2 alpha)) + mu(offset); a band
    numpy cannot allocate raises ``SpecFieldError`` naming ``max_mode``."""
    with _band_sized(spec):
        total = spec.gaussian_scale * renormalization_constant(spec.max_mode, spec.alpha)
    if spec.offset is not None:
        total += fld.mean_intensity(spec.offset)
    return total


def regularity_profile(spec: RandomDataSpec, s_values, mode_cutoffs, samples: int):
    """Median Sobolev-s norms of mode-M projections across the ensemble.

    Returns one row per (s, M):
    {"s", "cutoff", "median", "q25", "q75", "samples"}. A rejected cutoff
    or ``samples`` raises ``SpecFieldError`` naming it, before any draw, and
    so does a band that numpy cannot allocate (naming ``max_mode``).
    """
    return _profile(spec, s_values, mode_cutoffs, samples)()


def _profile(spec: RandomDataSpec, s_values, mode_cutoffs, samples: int):
    """``regularity_profile`` as a function of no arguments, called once, that returns its rows.

    Everything that can be refused is done here: the arguments are checked,
    every band-sized array is allocated and the first block is drawn. So a
    caller can set a profile up while it reads its input and run it later.
    """
    cutoffs = [fld.require_integer("cutoffs", m) for m in mode_cutoffs]
    fld.require_integer("samples", samples, 1)
    if cutoffs and cutoffs[0] < 0:
        raise SpecFieldError("cutoffs", "cutoffs must be >= 0")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise SpecFieldError("cutoffs", "mode_cutoffs must be strictly increasing")
    if cutoffs and cutoffs[-1] > spec.max_mode:
        raise SpecFieldError("cutoffs", "cutoffs cannot exceed the sampler's max_mode")
    s_values = [float(s) for s in s_values]
    center = spec.max_mode
    with _band_sized(spec):
        bracket = 1.0 + np.abs(np.arange(-center, center + 1, dtype=np.float64))
        weights = [bracket ** (2.0 * s) for s in s_values]
        # |c|^2 and its weighted copy, one block's worth, reused by every block
        a2_buffer = np.empty((min(_block_rows(spec), samples), 2 * center + 1))
        v_buffer = np.empty_like(a2_buffer)
    blocks = _blocks(spec, samples)

    def rows() -> list:
        norms = np.empty((len(s_values), len(cutoffs), samples))
        for start, block in blocks:
            a2 = np.abs(block, out=a2_buffer[:len(block)])
            a2 *= a2
            span = slice(start, start + len(block))
            for i, w in enumerate(weights):
                v = np.multiply(w, a2, out=v_buffer[:len(block)])
                for j, m in enumerate(cutoffs):
                    norm = norms[i, j, span]
                    v[:, center - m:center + m + 1].sum(axis=1, out=norm)
                    np.sqrt(norm, out=norm)
        out = []
        for i, s in enumerate(s_values):
            for j, m in enumerate(cutoffs):
                q25, med, q75 = np.percentile(norms[i, j], [25.0, 50.0, 75.0])
                out.append({
                    "s": s, "cutoff": m, "median": float(med),
                    "q25": float(q25), "q75": float(q75), "samples": samples,
                })
        return out
    return rows
