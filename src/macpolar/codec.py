"""Encoder, successive-cancellation decoder and block-error harness.

The block uses 2^l copies of the channel, one per branch signature.  A
message is an (N, m) array of GF(q) symbols in key order, row b holding
branch b's vector; the spec's frozen mask marks the frozen positions and
the rest carry information.  The encoder runs the butterfly recursion per
user; stage j combines message rows whose keys differ in bit j-1, with the
'-' slot receiving the sum.
The decoder walks branches in decoding order and evaluates each branch's
exact posterior over GF(q)^m by the two-node recursion the transforms
define: a minus node convolves the two child likelihoods over the sibling
vector, a plus node conditions on the already-decided sibling.  It decodes
a batch of blocks at once, one likelihood array per tree level (the
stage-wise layout of Leroux, Tal, Vardy and Gross), so its Python work
grows with the tree, not with the number of blocks.  Likelihoods stay in
the linear domain and are rescaled by their maximum at every node, which
keeps deep trees away from underflow without log arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecMismatchError
from .mac import DiscreteMac, add_table, all_vectors
from .polarize import CodeSpec, _info_map_error


# -- messages -------------------------------------------------------------------

def frozen_from_seed(spec: CodeSpec, seed) -> np.ndarray:
    """(N, m) frozen symbols drawn from a seeded generator, 0 at the
    information positions; the decoder is given the same array."""
    return _draw(spec.frozen_mask(), spec.q, seed)


def random_message(spec: CodeSpec, info_seed, frozen_seed) -> np.ndarray:
    """(N, m) message: seeded information symbols and seeded frozen ones."""
    mask = spec.frozen_mask()
    return _draw(mask, spec.q, frozen_seed) + _draw(~mask, spec.q, info_seed)


def _draw(where: np.ndarray, q: int, seed) -> np.ndarray:
    """Uniform symbols from one seeded generator at the True positions of
    an (N, m) mask, taken in row-major order (by branch, then user); 0
    elsewhere."""
    u = np.zeros(where.shape, dtype=np.int64)
    u[where] = np.random.default_rng(_seed_key(seed)).integers(
        0, q, size=int(where.sum()))
    return u


def _seed_key(seed):
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(s) for s in seed]


# -- encoding -------------------------------------------------------------------

def butterfly_transform(u: np.ndarray, q: int) -> np.ndarray:
    """Apply the l-stage recursion to key-indexed rows, the second-to-last
    axis of u; the '-' slot of each stage-j pair (keys differing in bit
    j-1) receives the sum."""
    x = np.asarray(u, dtype=np.int64) % q
    *batch, n, m = x.shape
    j = 1
    while j < n:
        # Row a*2j + b*j + c (c < j) has b as its key's bit of weight j.
        pairs = x.reshape(*batch, n // (2 * j), 2, j, m)
        pairs[..., 0, :, :] += pairs[..., 1, :, :]
        pairs[..., 0, :, :] %= q
        j <<= 1
    return x


def encode(spec: CodeSpec, u) -> np.ndarray:
    """Transmitted vectors x of an (N, m) message, or of a (T, N, m) batch
    of messages, in key order."""
    u = np.asarray(u)
    if u.ndim not in (2, 3) or u.shape[-2:] != (spec.block_length, spec.m):
        raise SpecMismatchError(f"expected an ({spec.block_length}, {spec.m}) "
                                f"message or a batch of them, got {u.shape}")
    return butterfly_transform(u, spec.q)


# -- channel sampling -------------------------------------------------------------

def simulate_channel(channel: DiscreteMac, x: np.ndarray, seed) -> np.ndarray:
    """Draw one output index per row of an (N, m) codeword: one generator
    per seed draws N uniforms, and row t maps the t-th through its input's
    inverse CDF."""
    x = np.asarray(x, dtype=np.int64)
    if x.ndim != 2 or x.shape[1] != channel.m:
        raise SpecMismatchError(f"channel has {channel.m} users, but the "
                                f"codeword has shape {x.shape}")
    n = x.shape[0]
    uniforms = np.random.default_rng(_seed_key(seed)).random(n)
    x_idx = (x % channel.q) @ (channel.q ** np.arange(channel.m))
    cdf = np.cumsum(channel.table, axis=1)
    received = np.empty(n, dtype=np.int64)
    for i in np.unique(x_idx):
        sel = x_idx == i
        received[sel] = _inverse_cdf(cdf[i], uniforms[sel])
    return received


def _inverse_cdf(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Output index of each uniform under one cumulative row: the first
    output whose cumulative mass exceeds it.  A row may sum to a little
    under 1 (validation allows ROW_SUM_TOL), so a draw at or above the total
    takes the last output with positive mass instead of running past it."""
    last = int(np.argmax(cdf == cdf[-1]))
    return np.minimum(np.searchsorted(cdf, uniforms, side="right"), last)


# -- successive cancellation decoding ----------------------------------------------

@dataclass
class DecodeResult:
    u_hat: np.ndarray             # (N, m) decided branch vectors
    posteriors: list              # per-branch posterior over GF(q)^m, key order
    fallbacks: int                # node likelihoods that vanished (set uniform)


def sc_decode(spec: CodeSpec, channel: DiscreteMac, received, frozen,
              genie_u: np.ndarray | None = None, with_details: bool = False):
    """Decode one received block.

    `frozen` is an (N, m) array of which only the frozen positions are
    read: a message itself will do.  Branches are processed in decoding
    order.  Frozen branches copy their known symbols.  A good branch's
    information users are decided one at a time, in order: direction h of
    its canonical map is user s_h's symbol plus a shift the frozen users
    fix, and it is ML-decided from the posterior conditioned on the frozen
    coordinates and the users decided before it, ties resolved toward the
    smaller field element.  The information symbols are
    u_hat[~spec.frozen_mask()].

    `genie_u` (the true message) makes the conditioning use true
    predecessor branches while still recording the per-branch decisions.
    Returns the decided (N, m) array u_hat, or a DecodeResult when
    with_details is set.
    """
    n = spec.block_length
    received = np.asarray(received, dtype=np.int64)
    if received.shape != (n,):
        raise SpecMismatchError(f"expected {n} received symbols, got {received.shape}")
    frozen = np.asarray(frozen, dtype=np.int64)
    if frozen.shape != (n, spec.m):
        raise SpecMismatchError(f"expected ({n}, {spec.m}) frozen symbols, "
                                f"got {frozen.shape}")
    known = np.where(spec.frozen_mask(), frozen % spec.q, 0)
    genie = None if genie_u is None else np.asarray(genie_u, dtype=np.int64)[None]
    u_hat, posteriors, fallbacks = _decode_batch(
        spec, channel, received[None], known[None], genie, with_details)
    if with_details:
        return DecodeResult(u_hat=u_hat[0],
                            posteriors=[None if p is None else p[0] for p in posteriors],
                            fallbacks=int(fallbacks[0]))
    return u_hat[0]


def _decode_batch(spec: CodeSpec, channel: DiscreteMac, received: np.ndarray,
                  frozen: np.ndarray, genie_u: np.ndarray | None = None,
                  with_details: bool = False):
    """Decode T blocks at once, level by level.

    received is (T, N) output indices, frozen the (T, N, m) frozen symbols,
    0 at the information positions, and genie_u an optional (T, N, m)
    true message.
    Level k holds a (T, 2^k, q^m) likelihood array for one decoding index
    at a time: it is recomputed from level k+1 only when a good branch
    needs a new index there, so every trial evaluates exactly the nodes of
    the one-block recursion.  Decided vectors are kept as indices into
    GF(q)^m, one (T, N) array per level.

    Returns (u_hat (T, N, m), posteriors, fallbacks): posteriors is a
    per-branch list of (T, q^m) arrays (None on undecided branches) when
    with_details is set, and fallbacks counts per trial the node rows whose
    likelihood vanished and were replaced by the uniform one.
    """
    q, m, l = spec.q, spec.m, spec.l
    if channel.q != q or channel.m != m:
        raise SpecMismatchError("channel does not match the code spec")
    for b in spec.branches:
        why = b.in_good_set and _info_map_error(b.a_columns, b.s_users, q, m)
        if why:
            raise SpecMismatchError(f"branch {b.sig}: {why}")
    t_count, n = received.shape
    big_q = q ** m
    add = add_table(q, m)
    vecs = all_vectors(q, m)
    powers = q ** np.arange(m)
    known = frozen @ powers                          # (T, N) vector indices
    genie = None if genie_u is None else (genie_u % q) @ powers

    like = [None] * (l + 1)
    stamp = [-1] * (l + 1)
    decided = np.zeros((l + 1, t_count, n), dtype=np.int64)
    fallbacks = np.zeros(t_count, dtype=np.int64)
    trial = np.arange(t_count)[:, None, None]        # gather grids
    pos = [np.arange(1 << k)[None, :, None] for k in range(l)]

    def ensure(k: int, a: int):
        """Make like[k] hold decoding index a at every position of level k."""
        if stamp[k] == a:
            return
        if k == l:
            v = channel.table.T[received]
        else:
            ensure(k + 1, a >> 1)
            half = 1 << k
            l0, l1 = like[k + 1][:, :half], like[k + 1][:, half:]
            if a & 1:
                sib = decided[k, :, (a - 1) * half: a * half]
                v = l0[trial, pos[k], add[sib]] * l1
            else:
                # Not einsum or matmul: their rounding depends on the batch
                # shape, and a sum along the last axis rounds each row alike,
                # so exactly tied posteriors break the same way in any batch.
                # That needs a C-ordered gather: l0[:, :, add] puts the trial
                # axis innermost, and the sum then runs across rows.
                v = (np.take(l0, add, axis=2) * l1[:, :, None, :]).sum(axis=3)
        mx = v.max(axis=2, keepdims=True)
        dead = mx[:, :, 0] <= 0
        if dead.any():
            fallbacks[:] += dead.sum(axis=1)
            mx[dead] = 1.0
            v = v / mx
            v[dead] = 1.0 / big_q
        else:
            v = v / mx
        like[k] = v
        stamp[k] = a

    u_idx = np.empty((t_count, n), dtype=np.int64)
    posteriors = [] if with_details else None
    for b, branch in enumerate(spec.branches):
        post = None
        if branch.in_good_set and branch.r > 0:
            ensure(0, b)
            post = like[0][:, 0]
            post = post / post.sum(axis=1, keepdims=True)
            u_idx[:, b] = _decide_batch(branch, post, frozen[:, b], q, m)
        else:
            u_idx[:, b] = known[:, b]
        if with_details:
            posteriors.append(post)
        decided[0, :, b] = u_idx[:, b] if genie is None else genie[:, b]
        # Partial sums: a butterfly over the contiguous block that the
        # finished pair of decoding indices covers, level after level.
        k, a = 0, b
        while a & 1 and k < l:
            lo, mid, hi = (a - 1) << k, a << k, (a + 1) << k
            decided[k + 1, :, lo:mid] = add[decided[k, :, lo:mid], decided[k, :, mid:hi]]
            decided[k + 1, :, mid:hi] = decided[k, :, mid:hi]
            k, a = k + 1, a >> 1
    return vecs[u_idx], posteriors, fallbacks


def _decide_batch(branch, post, base, q, m):
    """Sequential ML decisions on the information users of one branch.

    post is (T, q^m), base the (T, m) known symbols of the branch, 0 at its
    information users.  The map is canonical (`_info_map_error`), so
    direction h reads user s_h's symbol plus the shift c_h = (base @ A)_h
    that the frozen users fix.  Direction h is decided from the posterior
    mass of the vectors that agree with the earlier decisions, ties going
    to the smaller value z; user s_h's symbol is then z - c_h.  Returns
    (T,) vector indices.
    """
    a = np.array(branch.a_columns, dtype=np.int64).T
    powers = q ** np.arange(m)
    place = powers[[k - 1 for k in branch.s_users]]      # index weight per user
    trials = np.arange(len(base))
    idx = base @ powers
    shift = base @ a
    for h, weight in enumerate(place):
        later = all_vectors(q, len(place) - h - 1) @ place[h + 1:]
        x = (np.arange(q) - shift[:, h, None]) % q                   # (T, q)
        cand = (idx[:, None] + x * weight)[:, :, None] + later       # (T, q, K)
        # First maximum: ties go to the smaller z.
        z_hat = post[trials[:, None, None], cand].sum(axis=2).argmax(axis=1)
        idx += x[trials, z_hat] * weight
    return idx


# -- Monte Carlo harness -------------------------------------------------------------

# Trials decoded together: at most DECODE_CHUNK, and only as many as keep
# a minus node's gather of chunk * N/2 * q^2m floats, plus its product
# temporary of the same size, within GATHER_FLOATS (128 MB of float64).
# The likelihoods, chunk * 2N * q^m floats, take less.
DECODE_CHUNK = 64
GATHER_FLOATS = 1 << 24


def _decode_chunk(n: int, inputs: int) -> int:
    """Trials per decoder batch at block length n with q^m = inputs."""
    return max(1, min(DECODE_CHUNK, GATHER_FLOATS // (n * inputs * inputs)))


@dataclass(frozen=True)
class TrialReport:
    spec: CodeSpec
    trials: int
    errors: int
    bler: float
    ci_low: float
    ci_high: float
    union_bound: float
    seed: int

    CSV_COLUMNS = ("q", "m", "l", "N", "eps", "z_budget", "sum_rate",
                   "union_bound", "trials", "errors", "bler",
                   "ci_low", "ci_high", "seed")

    def csv_row(self) -> tuple:
        s = self.spec
        return (s.q, s.m, s.l, s.block_length, s.eps, s.z_budget, s.sum_rate,
                self.union_bound, self.trials, self.errors, self.bler,
                self.ci_low, self.ci_high, self.seed)

    def to_dict(self) -> dict:
        return dict(zip(self.CSV_COLUMNS, self.csv_row()))


WILSON_Z = 1.959963984540054     # standard normal quantile at 0.975


def wilson_interval(errors: int, trials: int):
    """95% score interval for a binomial proportion."""
    z = WILSON_Z
    if trials == 0:
        return 0.0, 1.0
    p = errors / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return lo, hi


def run_trials(spec: CodeSpec, channel: DiscreteMac, n_trials: int,
               seed: int) -> TrialReport:
    """Monte Carlo block-error simulation.

    Each trial draws fresh uniform information symbols and fresh frozen
    symbols (averaging over the frozen choice), transmits the block and
    counts a block error whenever any decoded information symbol differs.
    Per-trial generators derive from (seed, trial, stream), so runs are
    reproducible and order-independent.  Blocks are encoded and decoded
    `_decode_chunk` trials at a time.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    mask = spec.frozen_mask()
    info = ~mask
    errors = 0
    chunk = _decode_chunk(spec.block_length, spec.q ** spec.m)
    for start in range(0, n_trials, chunk):
        trials = range(start, min(start + chunk, n_trials))
        frozen = np.stack([_draw(mask, spec.q, [seed, t, 1]) for t in trials])
        u = frozen + np.stack([_draw(info, spec.q, [seed, t, 0]) for t in trials])
        received = np.stack([simulate_channel(channel, x, seed=[seed, t, 2])
                             for t, x in zip(trials, encode(spec, u))])
        u_hat, _, _ = _decode_batch(spec, channel, received, frozen)
        errors += int((u_hat != u)[:, info].any(axis=1).sum())
    bler = errors / n_trials
    lo, hi = wilson_interval(errors, n_trials)
    return TrialReport(spec=spec, trials=n_trials, errors=errors, bler=bler,
                       ci_low=lo, ci_high=hi, union_bound=spec.union_bound,
                       seed=seed)
