"""Encoder, successive-cancellation decoder and block-error harness.

The block uses 2^l copies of the channel, one per branch signature.  The
encoder runs the butterfly recursion per user; stage j combines message
entries whose keys differ in bit j-1, with the '-' slot receiving the sum.
The decoder walks branches in decoding order and evaluates each branch's
exact posterior over GF(q)^m by the same two-node recursion the transforms
define: a minus node convolves the two child likelihoods over the sibling
vector, a plus node conditions on the already-decided sibling.  Likelihoods
stay in the linear domain and are rescaled by their maximum at every node,
which keeps deep trees away from underflow without log arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecMismatchError
from .mac import DiscreteMac, add_table, all_vectors, vec_to_index
from .polarize import CodeSpec


# -- messages -------------------------------------------------------------------

@dataclass(frozen=True)
class MessageAssignment:
    """Symbols for every (branch, user) slot of a code.

    info maps the information slots, frozen the frozen slots; both are
    keyed by (sig, user) with users 1-based.
    """
    info: dict
    frozen: dict

    def info_vector(self, spec: CodeSpec):
        return [self.info[slot] for slot in spec.info_slots()]


def frozen_from_seed(spec: CodeSpec, seed) -> dict:
    """Frozen symbols drawn from a seeded generator, one per frozen slot in
    decoding order; the decoder regenerates them from the same seed."""
    rng = np.random.default_rng(_seed_key(seed))
    slots = spec.frozen_slots()
    values = rng.integers(0, spec.q, size=len(slots))
    return {slot: int(v) for slot, v in zip(slots, values)}


def random_message(spec: CodeSpec, info_seed, frozen_seed) -> MessageAssignment:
    rng = np.random.default_rng(_seed_key(info_seed))
    slots = spec.info_slots()
    values = rng.integers(0, spec.q, size=len(slots))
    info = {slot: int(v) for slot, v in zip(slots, values)}
    return MessageAssignment(info=info, frozen=frozen_from_seed(spec, frozen_seed))


def message_from_info(spec: CodeSpec, info_values, frozen_seed) -> MessageAssignment:
    slots = spec.info_slots()
    if len(info_values) != len(slots):
        raise SpecMismatchError(
            f"expected {len(slots)} information symbols, got {len(info_values)}")
    info = {slot: int(v) % spec.q for slot, v in zip(slots, info_values)}
    return MessageAssignment(info=info, frozen=frozen_from_seed(spec, frozen_seed))


def _seed_key(seed):
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(s) for s in seed]


# -- encoding -------------------------------------------------------------------

@dataclass(frozen=True)
class CodewordBlock:
    q: int
    m: int
    l: int
    x: np.ndarray            # (2^l, m) transmitted vectors, key-indexed

    @property
    def block_length(self) -> int:
        return 1 << self.l


def message_matrix(spec: CodeSpec, msg: MessageAssignment) -> np.ndarray:
    """(N, m) matrix of branch message vectors in key order."""
    u = np.zeros((spec.block_length, spec.m), dtype=np.int64)
    for b, branch in enumerate(spec.branches):
        for k in range(1, spec.m + 1):
            slot = (branch.sig, k)
            src = msg.frozen if branch.frozen[k - 1] else msg.info
            if slot not in src:
                raise SpecMismatchError(f"missing symbol for slot {slot}")
            u[b, k - 1] = src[slot] % spec.q
    return u


def butterfly_transform(u: np.ndarray, q: int) -> np.ndarray:
    """Apply the l-stage recursion to key-indexed rows; the '-' slot of each
    stage-j pair (keys differing in bit j-1) receives the sum."""
    x = u.copy()
    n = x.shape[0]
    j = 1
    while j < n:
        idx = np.arange(n)
        minus = idx[(idx & j) == 0]
        x[minus] = (x[minus] + x[minus + j]) % q
        j <<= 1
    return x


def encode(spec: CodeSpec, msg: MessageAssignment) -> CodewordBlock:
    u = message_matrix(spec, msg)
    return CodewordBlock(q=spec.q, m=spec.m, l=spec.l,
                         x=butterfly_transform(u, spec.q))


# -- channel sampling -------------------------------------------------------------

def simulate_channel(channel: DiscreteMac, block: CodewordBlock, seed) -> np.ndarray:
    """Draw one output index per branch copy; reproducible per (seed, copy)."""
    if channel.q != block.q or channel.m != block.m:
        raise SpecMismatchError("channel does not match the codeword block")
    base = _seed_key(seed)
    n = block.block_length
    received = np.empty(n, dtype=np.int64)
    cdf = np.cumsum(channel.table, axis=1)
    for t in range(n):
        rng = np.random.default_rng(base + [t])
        x_idx = vec_to_index(block.x[t], channel.q)
        received[t] = int(np.searchsorted(cdf[x_idx], rng.random(), side="right"))
    return received


# -- successive cancellation decoding ----------------------------------------------

@dataclass
class DecodeResult:
    message: MessageAssignment
    u_hat: np.ndarray             # (N, m) decided branch vectors
    posteriors: list | None       # per-branch posterior over GF(q)^m, key order


def sc_decode(spec: CodeSpec, channel: DiscreteMac, received,
              frozen_seed=None, frozen: dict | None = None,
              genie_u: np.ndarray | None = None,
              with_details: bool = False):
    """Decode one received block.

    Branches are processed in decoding order.  Frozen branches copy their
    known symbols.  A good branch's posterior is reduced direction by
    direction: each detected direction is ML-decided from the posterior
    conditioned on the frozen coordinates and the directions decided
    before it, ties resolved toward the smaller field element; the
    information coordinates then follow by solving the linear system.

    `genie_u` (the true message matrix) makes the conditioning use true
    predecessor branches while still recording the per-branch decisions.
    Returns the decoded MessageAssignment, or a DecodeResult when
    with_details is set.
    """
    q, m, l = spec.q, spec.m, spec.l
    n = spec.block_length
    if channel.q != q or channel.m != m:
        raise SpecMismatchError("channel does not match the code spec")
    received = np.asarray(received, dtype=np.int64)
    if received.shape != (n,):
        raise SpecMismatchError(f"expected {n} received symbols, got {received.shape}")
    if frozen is None:
        if frozen_seed is None:
            raise SpecMismatchError("need frozen symbols or their seed")
        frozen = frozen_from_seed(spec, frozen_seed)

    big_q = q ** m
    add = add_table(q, m)
    vecs = all_vectors(q, m)
    powers = q ** np.arange(m)
    table = channel.table

    like = [np.zeros((1 << k, big_q)) for k in range(l + 1)]
    stamp = [np.full(1 << k, -1, dtype=np.int64) for k in range(l + 1)]
    decided = [np.zeros((n, m), dtype=np.int64) for _ in range(l + 1)]

    def compute(k: int, pi: int, a: int) -> np.ndarray:
        if stamp[k][pi] == a:
            return like[k][pi]
        if k == l:
            v = table[:, received[pi]].copy()
        else:
            half = 1 << k
            a2, c = a >> 1, a & 1
            l0 = compute(k + 1, pi, a2)
            l1 = compute(k + 1, pi + half, a2)
            if c == 0:
                v = l0[add] @ l1
            else:
                sib = decided[k][pi + (a - 1) * half]
                v = l0[add[int(sib @ powers)]] * l1
        mx = v.max()
        v = np.full(big_q, 1.0 / big_q) if mx <= 0 else v / mx
        like[k][pi] = v
        stamp[k][pi] = a
        return v

    def settle(k: int, pi: int, a_pair: int):
        half = 1 << k
        i0 = pi + (2 * a_pair) * half
        i1 = pi + (2 * a_pair + 1) * half
        decided[k + 1][i0] = (decided[k][i0] + decided[k][i1]) % q
        decided[k + 1][i1] = decided[k][i1]
        if k + 1 < l and a_pair & 1:
            settle(k + 1, pi, a_pair >> 1)
            settle(k + 1, pi + half, a_pair >> 1)

    u_hat = np.zeros((n, m), dtype=np.int64)
    posteriors = [] if with_details else None
    info: dict = {}
    for b, branch in enumerate(spec.branches):
        if branch.in_good_set and branch.r > 0:
            post = compute(0, 0, b)
            post = post / post.sum()
            if with_details:
                posteriors.append(post.copy())
            u = _decide_branch(branch, post, frozen, q, m, vecs, powers)
            for k in branch.s_users:
                info[(branch.sig, k)] = int(u[k - 1])
        else:
            u = np.array([frozen[(branch.sig, k)] for k in range(1, m + 1)],
                         dtype=np.int64)
            if with_details:
                posteriors.append(None)
        u_hat[b] = u
        decided[0][b] = u if genie_u is None else genie_u[b]
        if b & 1:
            settle(0, 0, b >> 1)
    msg = MessageAssignment(info=info, frozen=dict(frozen))
    if with_details:
        return DecodeResult(message=msg, u_hat=u_hat, posteriors=posteriors)
    return msg


def _decide_branch(branch, post, frozen, q, m, vecs, powers):
    """Sequential per-direction ML over the constrained candidate set."""
    a = branch.a_matrix(q)
    free = [k - 1 for k in branch.s_users]
    base = np.zeros(m, dtype=np.int64)
    for k in range(1, m + 1):
        if branch.frozen[k - 1]:
            base[k - 1] = frozen[(branch.sig, k)]
    # Candidate vectors: frozen coordinates fixed, information coordinates free.
    cand = np.repeat(base.reshape(1, -1), q ** len(free), axis=0)
    combos = all_vectors(q, len(free))
    for j, coord in enumerate(free):
        cand[:, coord] = combos[:, j]
    cand_idx = cand @ powers
    zmat = (cand @ a.data) % q
    mask = np.ones(len(cand), dtype=bool)
    for h in range(branch.r):
        scores = np.array([post[cand_idx[mask & (zmat[:, h] == z)]].sum()
                           for z in range(q)])
        z_hat = int(np.argmax(scores))   # first max: ties go to the smaller z
        mask &= zmat[:, h] == z_hat
    chosen = np.nonzero(mask)[0]
    if chosen.size != 1:
        raise SpecMismatchError(f"branch {branch.sig}: {chosen.size} candidate "
                                "vectors fit the direction decisions, expected 1")
    return cand[chosen[0]]


# -- Monte Carlo harness -------------------------------------------------------------

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


def wilson_interval(errors: int, trials: int, z: float = 1.959963984540054):
    """95% score interval for a binomial proportion."""
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
    reproducible and order-independent.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    errors = 0
    for trial in range(n_trials):
        msg = random_message(spec, info_seed=[seed, trial, 0],
                             frozen_seed=[seed, trial, 1])
        block = encode(spec, msg)
        received = simulate_channel(channel, block, seed=[seed, trial, 2])
        decoded = sc_decode(spec, channel, received, frozen=msg.frozen)
        if decoded.info != msg.info:
            errors += 1
    bler = errors / n_trials
    lo, hi = wilson_interval(errors, n_trials)
    return TrialReport(spec=spec, trials=n_trials, errors=errors, bler=bler,
                       ci_low=lo, ci_high=hi, union_bound=spec.union_bound,
                       seed=seed)
