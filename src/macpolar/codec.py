"""Encoder, successive-cancellation decoder and block-error harness.

The block uses 2^l copies of the channel, one per branch signature.  A
message is an (N, m) array of GF(q) symbols in key order, row b holding
branch b's vector; the spec's frozen mask marks the frozen positions and
the rest carry information.  The decoders read branch b's map from its
shape, spec.shapes[spec.shape_index[b]].  The encoder runs the butterfly
recursion per user; stage j combines message rows whose keys differ in
bit j-1, with the '-' slot receiving the sum.
The decoder evaluates each good branch's exact posterior over GF(q)^m by
the two-node recursion the transforms define: a minus node convolves the
two child likelihoods over the sibling vector, a plus node conditions on
the already-decided sibling.  It is one recursive walk over blocks of
branches in decoding order, each block's minus half before its plus half.
A block that holds no good branch is never descended (the rate-0 nodes of
the simplified decoder of Alamdar-Yazdi and Kschischang): where its
partial sums are read, they are the butterfly of its frozen vectors,
known in advance, so no decision changes.  The walk decodes a batch of
blocks at once, one array per visited node (the stage-wise layout of
Leroux, Tal, Vardy and Gross), so its Python work grows with the visited
nodes, not with the number of blocks.  Likelihoods stay in the linear
domain and are rescaled by their maximum at every node, which keeps deep
trees away from underflow without log arithmetic.

A linear combination of linear channels needs none of that arithmetic.
Each of its outputs reveals a linear image of the input, so each column of
its table (`to_explicit()`) is a constant on an affine set of GF(q)^m, a
coset of a subspace.  Then every rescaled node likelihood is exactly 1.0
on an affine set and 0 elsewhere: a minus node sums equal counts on the
difference set S_i - S_j, a plus node keeps (S_i - sibling) & S_j, and an
empty meet is the uniform fallback, whose minus nodes sum equal terms at
every input.  A table whose every column passes that test takes a second
decoder that holds one affine-set index per node and looks every node up
in small cached tables (`_coset_tables`); its decisions come from running
the float decoder's rule on each set's posterior, so the two decoders
agree bit for bit.  Any other table takes the float decoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SpecMismatchError
from .linear_mac import LinearComboMac, subspace_lattice
from .mac import DiscreteMac, add_table, all_vectors
from .polarize import CodeSpec
from .subspace import count_subspaces


# -- messages and channel draws --------------------------------------------------

# A run's draws come from two streams, each one PCG64 generator keyed
# (stream, seed).  Trial t's block sits at a fixed offset in each: N*m
# message symbols from output t*N*m of MESSAGES, N channel uniforms from
# output t*N of CHANNEL, so `advance` reaches any trial at once and the
# chunking and the trial count change no draw.  The stream comes first in
# the key: a seed of 2^32 or more is two words, and a key with a trailing
# zero word seeds the same state as the key without it.
MESSAGES, CHANNEL = 0, 1


def _stream(seed, stream: int, start: int, width: int) -> np.random.PCG64:
    """Stream `stream` of run `seed` at trial `start`, `width` outputs per
    trial; every output gives one symbol or one uniform."""
    bits = np.random.PCG64([stream, int(seed)])
    bits.advance(start * width)
    return bits


def _messages(spec: CodeSpec, seed, start: int, stop: int) -> np.ndarray:
    """(T, N, m) messages of trials start..stop-1, by branch, then user.

    An output's top 53 bits k give the uniform u = k 2^-53 that
    `Generator.random` makes of it, and the symbol is floor(u q), worked
    out exactly in integers and in place.  Each symbol then takes
    floor(2^53 / q) or one more of the 2^53 values of k, so its probability
    is within 2^-53 of 1/q.  k q must fit 64 bits, so from q = 2^11 on, k
    keeps its top 64 - bits(q) bits, and the bound is 2^(bits(q) - 64)."""
    q, width = spec.q, spec.block_length * spec.m
    cut = max(0, q.bit_length() - 11)
    u = _stream(seed, MESSAGES, start, width).random_raw((stop - start) * width)
    u >>= np.uint64(11 + cut)
    u *= np.uint64(q)
    u >>= np.uint64(53 - cut)
    return u.view(np.int64).reshape(stop - start, spec.block_length, spec.m)


def _uniforms(n: int, seed, start: int, stop: int) -> np.ndarray:
    """(T, n) channel uniforms of trials start..stop-1."""
    bits = _stream(seed, CHANNEL, start, n)
    return np.random.Generator(bits).random((stop - start, n))


def random_message(spec: CodeSpec, seed, trial: int = 0) -> np.ndarray:
    """(N, m) message of trial `trial` of run `seed`, as `run_trials` draws
    it: information and frozen symbols alike."""
    return _messages(spec, seed, trial, trial + 1)[0]


def frozen_from_seed(spec: CodeSpec, seed, trial: int = 0) -> np.ndarray:
    """(N, m) frozen symbols of trial `trial` of run `seed`, 0 at the
    information positions; the decoder is given the same array."""
    return np.where(spec.frozen_mask(), random_message(spec, seed, trial), 0)


# -- encoding -------------------------------------------------------------------

def butterfly_transform(u: np.ndarray, q: int) -> np.ndarray:
    """Apply the l-stage recursion to key-indexed rows, the second-to-last
    axis of u; the '-' slot of each stage-j pair (keys differing in bit
    j-1) receives the sum.  Returns int64 values in [0, q)."""
    x = np.asarray(u, dtype=np.int64)
    if x.size and (x.min() < 0 or x.max() >= q):   # an int64 % costs more than the stages
        x = x % q
    n = x.shape[-2]
    # Key axis outermost, so that a stage's rows are runs across the batch,
    # in the narrowest unsigned dtype that holds a sum of two symbols, 2q - 2.
    keyed = np.moveaxis(x, -2, 0).astype(np.min_scalar_type(2 * q - 2), order="C")
    j = 1
    while j < n:
        # Key a*2j + b*j + c (c < j) has b as its bit of weight j.
        pairs = keyed.reshape(n // (2 * j), 2, -1)
        top = pairs[:, 0]
        top += pairs[:, 1]
        # Unsigned: below q, top - q wraps past top; from q on it is top mod q.
        np.minimum(top, top - int(q), out=top)
        j <<= 1
    return np.moveaxis(keyed, 0, -2).astype(np.int64, order="C")


def encode(spec: CodeSpec, u) -> np.ndarray:
    """Transmitted vectors x of an (N, m) message, or of a (T, N, m) batch
    of messages, in key order."""
    u = np.asarray(u)
    if u.ndim not in (2, 3) or u.shape[-2:] != (spec.block_length, spec.m):
        raise SpecMismatchError(f"expected an ({spec.block_length}, {spec.m}) "
                                f"message or a batch of them, got {u.shape}")
    return butterfly_transform(u, spec.q)


# -- channel sampling -------------------------------------------------------------

def simulate_channel(channel: DiscreteMac | LinearComboMac, x: np.ndarray, seed,
                     trial: int = 0) -> np.ndarray:
    """Output indices (`to_explicit` ones for a combination) of an (N, m)
    codeword, drawn from trial `trial`'s N uniforms of run `seed`: row i
    maps the i-th through its input's inverse CDF."""
    x = np.asarray(x, dtype=np.int64)
    if x.ndim != 2 or x.shape[1] != channel.m:
        raise SpecMismatchError(f"channel has {channel.m} users, but the "
                                f"codeword has shape {x.shape}")
    uniforms = _uniforms(len(x), seed, trial, trial + 1)
    return _sampler(channel)(x[None] % channel.q, uniforms)[0]


def _sampler(channel: DiscreteMac | LinearComboMac):
    """sample(x, uniforms): (T, N) output indices of a (T, N, m) batch of
    codewords in [0, q), uniform (t, i) mapped through row i of codeword
    t's inverse CDF.

    A combination's output reveals term k with the term's weight whatever
    the input, and row x of its table (`to_explicit`) holds the term
    weights once each, in term order, so the row's cumulative sums are
    those of the weights: adding the zeros between them is exact.  The
    inverse CDF of the row therefore picks the output of the term the
    weights' inverse CDF picks, and one `searchsorted` over the weights
    draws the whole batch, its outputs read from `output_indices`.  An
    explicit table takes one pass per distinct input."""
    powers = channel.q ** np.arange(channel.m)
    if isinstance(channel, LinearComboMac):
        weights = np.cumsum([w for w, _ in channel.terms])
        outputs = channel.output_indices()
        return lambda x, uniforms: outputs[_inverse_cdf(weights, uniforms), x @ powers]
    cdf = np.cumsum(channel.table, axis=1)

    def sample(x, uniforms):
        x_idx = (x @ powers).ravel()
        uniforms = uniforms.ravel()
        received = np.empty(x_idx.shape, dtype=np.int64)
        for i in np.flatnonzero(np.bincount(x_idx, minlength=len(cdf))):
            at = np.flatnonzero(x_idx == i)
            received[at] = _inverse_cdf(cdf[i], uniforms[at])
        return received.reshape(x.shape[:2])
    return sample


def _inverse_cdf(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Output index of each uniform under one cumulative row: the first
    output whose cumulative mass exceeds it.  A row may sum to a little
    under 1 (validation allows ROW_SUM_TOL), so a draw at or above the total
    takes the first output that reaches the total instead of running past
    it."""
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
    with_details is set.  A spec that `CodeSpec.check` refuses raises its
    SpecMismatchError, and so does a received symbol outside the channel's
    outputs.
    """
    decode, _ = _decoder(spec, channel)
    n = spec.block_length
    received = np.asarray(received, dtype=np.int64)
    if received.shape != (n,):
        raise SpecMismatchError(f"expected {n} received symbols, got {received.shape}")
    if ((received < 0) | (received >= channel.output_size)).any():
        raise SpecMismatchError(f"received symbols must lie in 0..{channel.output_size - 1}")
    frozen = np.asarray(frozen, dtype=np.int64)
    if frozen.shape != (n, spec.m):
        raise SpecMismatchError(f"expected ({n}, {spec.m}) frozen symbols, "
                                f"got {frozen.shape}")
    known = np.where(spec.frozen_mask(), frozen % spec.q, 0)
    genie = None if genie_u is None else np.asarray(genie_u, dtype=np.int64)[None]
    u_hat, posteriors, fallbacks = decode(received[None], known[None], genie, with_details)
    if with_details:
        return DecodeResult(u_hat=u_hat[0],
                            posteriors=[None if p is None else p[0] for p in posteriors],
                            fallbacks=int(fallbacks[0]))
    return u_hat[0]


def _decoder(spec: CodeSpec, channel: DiscreteMac):
    """(decode, chunk) after `spec.check()`, the q and m match and the
    choice of route, each run once.  decode(received, frozen, genie_u=None,
    with_details=False) decodes T blocks: received (T, N) output indices,
    frozen the (T, N, m) frozen symbols (0 at the information positions),
    genie_u an optional (T, N, m) true message.  A channel whose every
    output column is constant on an affine support takes `_decode_coset`,
    any other `_decode_float`; both return the same (u_hat (T, N, m),
    posteriors, fallbacks).  With with_details set, posteriors is a
    per-branch list of (T, q^m) arrays (None on undecided branches) and
    fallbacks counts per trial the node rows whose likelihood vanished and
    were set uniform; without it both are None.
    chunk is the number of trials to decode at once (see DECODE_CHUNK)."""
    spec.check()
    if channel.q != spec.q or channel.m != spec.m:
        raise SpecMismatchError("channel does not match the code spec")
    leaves = _coset_leaves(channel)
    # Floats (or integers) per trial and branch in the route's largest arrays.
    cells = spec.q ** (2 * spec.m) if leaves is None else spec.m
    chunk = max(1, min(DECODE_CHUNK, GATHER_FLOATS // (spec.block_length * cells)))

    def decode(received, frozen, genie_u=None, with_details=False):
        if leaves is None:
            return _decode_float(spec, channel, received, frozen, genie_u, with_details)
        return _decode_coset(spec, leaves[received], frozen, genie_u, with_details)

    return decode, chunk


def _decode_float(spec: CodeSpec, channel: DiscreteMac, received: np.ndarray,
                  frozen: np.ndarray, genie_u: np.ndarray | None = None,
                  with_details: bool = False):
    """`_decoder`'s decode on likelihood arrays, for any channel: a level-k
    node holds (2^k, T, q^m) likelihoods, each row rescaled by its
    maximum."""
    q, m = spec.q, spec.m
    big_q = q ** m
    add = add_table(q, m)
    fallbacks = np.zeros(len(received), dtype=np.int64) if with_details else None

    def scaled(v):
        mx = v.max(axis=2, keepdims=True)
        dead = mx[:, :, 0] <= 0
        if not dead.any():
            return v / mx
        if with_details:
            fallbacks[:] += dead.sum(axis=0)
        mx[dead] = 1.0
        v = v / mx
        v[dead] = 1.0 / big_q
        return v

    def minus(l0, l1):
        # Not einsum or matmul: their rounding depends on the batch shape,
        # and a sum along the last axis rounds each row alike, so exactly
        # tied posteriors break the same way in any batch.  That needs a
        # C-ordered gather: l0[:, :, add] may put another axis innermost, and
        # the sum then runs across rows.
        return scaled((np.take(l0, add, axis=2) * l1[:, :, None, :]).sum(axis=3))

    def plus(l0, l1, sib):
        return scaled(np.take_along_axis(l0, add[sib], axis=2) * l1)

    def leaf(b, v):
        post = v[0] / v[0].sum(axis=1, keepdims=True)
        shape = spec.shapes[spec.shape_index[b]]
        return post, _decide_batch(shape.a_columns, shape.s_users, post, frozen[:, b], q, m)

    u_hat, posteriors = _walk(spec, lambda: scaled(channel.table.T[received.T]),
                              minus, plus, leaf, frozen, genie_u, with_details)
    return u_hat, posteriors, fallbacks


def _decode_coset(spec: CodeSpec, leaf: np.ndarray, frozen: np.ndarray,
                  genie_u: np.ndarray | None = None, with_details: bool = False):
    """`_decoder`'s decode on affine-set indices.

    leaf is (T, N): the `_coset_tables` index of each received output's
    support.  Where every leaf likelihood is a constant on an affine set,
    every node likelihood that `_decode_float` normalizes is exactly 1.0
    on an affine set and 0 elsewhere, or the uniform fallback, so a
    level-k node is one (2^k, T) array of set indices, each a gather from
    the tables.  The index `dead` stands for the uniform fallback.
    """
    q, m = spec.q, spec.m
    tab = _coset_tables(q, m)
    fallbacks = np.zeros(len(leaf), dtype=np.int64) if with_details else None
    known = (frozen @ q ** np.arange(m)).T
    decide = [_decision_table(q, m, s.a_columns, s.s_users) if s.in_good_set and s.r
              else None for s in spec.shapes]

    def minus(l0, l1):
        return tab.minus[l0, l1]

    def plus(l0, l1, sib):
        v = tab.meet[tab.trans[l0, sib], l1]
        if with_details:
            fallbacks[:] += (v == tab.dead).sum(axis=0)
        return v

    def decided(b, v):
        sets, table = v[0], decide[spec.shape_index[b]]
        return (tab.post[sets] if with_details else None), table[sets, known[b]]

    u_hat, posteriors = _walk(spec, lambda: leaf.T, minus, plus, decided, frozen,
                              genie_u, with_details)
    return u_hat, posteriors, fallbacks


def _walk(spec: CodeSpec, top, minus, plus, leaf, frozen: np.ndarray,
          genie_u: np.ndarray | None, with_details: bool):
    """The recursive successive-cancellation walk both decoders share.

    Block a of level k holds branches [a 2^k, (a+1) 2^k); its node values
    are (2^k, T, ...), position first, so that a block is a slice of rows,
    and top() gives the level-l block's.  minus(l0, l1) and plus(l0, l1,
    sib) give a child's values from the two halves of its parent's, plus
    reading sib, the left sibling's partial sums: the (2^k, T) k-stage
    butterfly of the vector indices decided there.
    leaf(b, v) gives good branch b's (T, q^m) posterior (None is allowed
    when with_details is off) and its (T,) decided vector indices.

    A block without a good branch is never descended: its partial sums,
    when read, are the butterfly of its frozen (or true) vectors, done in
    its k stages at once.  Every other node is evaluated exactly once,
    as the one-block recursion evaluates it.  Returns (u_hat, posteriors).
    """
    q, m = spec.q, spec.m
    add = add_table(q, m)
    powers = q ** np.arange(m)
    u_idx = (frozen @ powers).T.copy()               # (N, T) vector indices
    # A position is read only once its branch is finished, so it can hold
    # the frozen (or true) vector of every branch from the start.
    partial = u_idx.copy() if genie_u is None else ((genie_u % q) @ powers).T.copy()
    posteriors = [None] * spec.block_length if with_details else None
    # Good branches before each position: block [lo, hi) holds one when
    # ahead[hi] > ahead[lo].
    carries = np.array([bool(s.in_good_set and s.r) for s in spec.shapes])
    ahead = [0] + np.cumsum(carries[spec.shape_index]).tolist()

    def settle(lo: int, k: int):
        """The k-stage butterfly of partial[lo:lo + 2^k], in place."""
        block = partial[lo:lo + (1 << k)]
        j = 1
        while j < 1 << k:
            # Row c*2j + j + d is the '+' sibling of row c*2j + d.
            pairs = block.reshape(-1, 2, j, block.shape[1])
            pairs[:, 0] = add[pairs[:, 0], pairs[:, 1]]
            j <<= 1

    def sc(k: int, lo: int, v, need: bool):
        """Decode the level-k block starting at branch lo from its node
        values v; when need is set, leave its k-stage partial sums."""
        if k == 0:
            post, u_idx[lo] = leaf(lo, v)
            if need and genie_u is None:
                partial[lo] = u_idx[lo]
            if with_details:
                posteriors[lo] = post
            return
        half = 1 << (k - 1)
        mid, hi = lo + half, lo + 2 * half
        l0, l1 = v[:half], v[half:]
        right = ahead[hi] > ahead[mid]
        if ahead[mid] > ahead[lo]:
            sc(k - 1, lo, minus(l0, l1), need or right)
        else:                   # then the right block holds the good branches
            settle(lo, k - 1)
        if right:
            sc(k - 1, mid, plus(l0, l1, partial[lo:mid]), need)
        elif need:
            settle(mid, k - 1)
        if need:
            partial[lo:mid] = add[partial[lo:mid], partial[mid:hi]]

    if ahead[-1]:
        sc(spec.l, 0, top(), False)
    return all_vectors(q, m)[u_idx.T.copy()], posteriors


def _decide_batch(a_columns, s_users, post, base, q, m):
    """Sequential ML decisions on the information users of one branch.

    post is (T, q^m), base the (T, m) known symbols of the branch, 0 at its
    information users.  The map is canonical (`CodeSpec.check`), so
    direction h reads user s_h's symbol plus the shift c_h = (base @ A)_h
    that the frozen users fix.  Direction h is decided from the posterior
    mass of the vectors that agree with the earlier decisions, ties going
    to the smaller value z; user s_h's symbol is then z - c_h.  Returns
    (T,) vector indices.
    """
    a = np.array(a_columns, dtype=np.int64).T
    powers = q ** np.arange(m)
    place = powers[[k - 1 for k in s_users]]      # index weight per user
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


# -- the affine-set tables of the coset decoder --------------------------------------

# The coset decoder keeps an affine set as an int64 bit mask over the q^m
# input vectors, so it takes at most COSET_INPUTS of them, and a shape whose
# node and posterior tables hold more than COSET_CELLS cells stays on the
# float decoder: GF(2)^4 (307 sets) needs 0.2M cells, GF(2)^5 (2451) 12M.
COSET_INPUTS = 63
COSET_CELLS = 1 << 20


@dataclass(frozen=True, eq=False)
class CosetTables:
    """Every affine set S_i of GF(q)^m (a coset of a `subspace_lattice`
    subspace), with the node updates of `_decode_coset` as index tables.
    Index `dead` = len(keys) is the uniform fallback likelihood; as an
    operand it acts as the full space.  Read-only."""

    keys: np.ndarray     # (A,) ascending; bit x set when input vector x is in S_i
    minus: np.ndarray    # (A+1, A+1): S_i - S_j, the minus node's support
    trans: np.ndarray    # (A+1, q^m): S_i - s
    meet: np.ndarray     # (A+1, A+1): S_i & S_j, `dead` when it is empty
    post: np.ndarray     # (A+1, q^m): normalized posterior of each index
    dead: int


def _coset_count(q: int, m: int) -> int:
    """Affine sets of GF(q)^m: q^(m-d) cosets of each d-dim subspace."""
    return sum(count_subspaces(m, d, q) * q ** (m - d) for d in range(m + 1))


def _coset_fits(q: int, m: int) -> bool:
    """Whether GF(q)^m is within COSET_INPUTS and COSET_CELLS."""
    size = _coset_count(q, m) + 1
    return q ** m <= COSET_INPUTS and 2 * size * (size + q ** m) <= COSET_CELLS


@lru_cache(maxsize=None)
def _coset_tables(q: int, m: int) -> CosetTables:
    """The tables of GF(q)^m; the shape must pass `_coset_fits`.

    Set i is K + r with K = `subspace_lattice` subspace sub[i] and r a
    member rep[i].  Then S_i - S_j = (K_i + K_j) + (r_i - r_j), and a
    non-empty S_i & S_j is (K_i & K_j) + x for its lowest member x, so
    every entry is a lookup in coset[K, v], the index of K + v.
    """
    lat = subspace_lattice(q, m)
    big_q = q ** m
    vecs = all_vectors(q, m)
    diff = add_table(q, m)[:, ((-vecs) % q) @ q ** np.arange(m)]    # u - v
    inputs = np.arange(big_q)
    # K + v holds u when u - v lies in K.
    masks = lat.members[:, diff.T] @ (1 << inputs)                   # (L, q^m)
    keys, first, coset = np.unique(masks, return_index=True, return_inverse=True)
    coset = coset.reshape(masks.shape)
    sub, rep = np.divmod(first, big_q)
    dead = len(keys)
    ii, jj = np.ix_(np.arange(dead), np.arange(dead))
    minus = coset[lat.join[sub[ii], sub[jj]], diff[rep[ii], rep[jj]]]
    trans = coset[sub[:, None], diff[rep]]
    both = keys[ii] & keys[jj]
    lowest = np.frexp((both & -both).astype(np.float64))[1] - 1
    meet = np.where(both != 0, coset[lat.meet[sub[ii], sub[jj]], lowest], dead)
    # The dead index is an operand like the full space, whose mask is the
    # largest key.
    ext = np.append(np.arange(dead), dead - 1)
    rows = np.vstack([(keys[:, None] >> inputs) & 1, np.full((1, big_q), 1.0 / big_q)])
    tables = CosetTables(keys=keys, minus=minus[np.ix_(ext, ext)], trans=trans[ext],
                         meet=meet[np.ix_(ext, ext)],
                         post=rows / rows.sum(axis=1, keepdims=True), dead=dead)
    for arr in (tables.keys, tables.minus, tables.trans, tables.meet, tables.post):
        arr.setflags(write=False)
    return tables


@lru_cache(maxsize=None)
def _decision_table(q: int, m: int, a_columns: tuple, s_users: tuple) -> np.ndarray:
    """(A+1, q^m) decided vector index of a good branch with this canonical
    map, by node index and frozen base (the index of the branch's known
    symbols, 0 at the information users; other columns hold 0).  Built by
    `_decide_batch` on the node's posterior, so ties break as the float
    decoder breaks them."""
    post = _coset_tables(q, m).post
    vecs = all_vectors(q, m)
    bases = np.flatnonzero((vecs[:, [k - 1 for k in s_users]] == 0).all(axis=1))
    decided = _decide_batch(a_columns, s_users, np.repeat(post, len(bases), axis=0),
                            np.tile(vecs[bases], (len(post), 1)), q, m)
    table = np.zeros(post.shape, dtype=np.int64)
    table[:, bases] = decided.reshape(len(post), len(bases))
    table.setflags(write=False)
    return table


def _coset_leaves(channel: DiscreteMac):
    """The `_coset_tables` index of every output column's support when each
    column is constant on a non-empty affine support (as every column of a
    linear combination's `to_explicit` table is) and the shape fits; None
    otherwise, and then the channel takes the float decoder."""
    q, m, t = channel.q, channel.m, channel.table
    if not _coset_fits(q, m):
        return None
    top = t.max(axis=0)
    if not ((top > 0).all() and ((t == top) | (t == 0)).all()):
        return None
    keys = _coset_tables(q, m).keys
    support = (1 << np.arange(q ** m)) @ (t > 0)
    at = np.minimum(np.searchsorted(keys, support), len(keys) - 1)
    return at if (keys[at] == support).all() else None


# -- Monte Carlo harness -------------------------------------------------------------

# Trials decoded together: at most DECODE_CHUNK, and on the float decoder
# only as many as keep a minus node's gather of chunk * N/2 * q^2m floats,
# plus its product temporary of the same size, within GATHER_FLOATS (128 MB
# of float64); its likelihoods, chunk * 2N * q^m floats, take less.  The
# coset decoder's largest arrays are the chunk * N * m message symbols,
# held to the same budget.
DECODE_CHUNK = 64
GATHER_FLOATS = 1 << 24


@dataclass(frozen=True)
class TrialReport:
    spec: CodeSpec
    trials: int
    errors: int
    bler: float
    ci_low: float
    ci_high: float
    seed: int

    CSV_COLUMNS = ("q", "m", "l", "N", "eps", "z_budget", "sum_rate",
                   "union_bound", "trials", "errors", "bler",
                   "ci_low", "ci_high", "seed")

    def csv_row(self) -> tuple:
        s = self.spec
        return (s.q, s.m, s.l, s.block_length, s.eps, s.z_budget, s.sum_rate,
                s.union_bound, self.trials, self.errors, self.bler,
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


def run_trials(spec: CodeSpec, channel: DiscreteMac | LinearComboMac,
               n_trials: int, seed: int) -> TrialReport:
    """Monte Carlo block-error simulation.

    Each trial draws fresh uniform information symbols and fresh frozen
    symbols (averaging over the frozen choice), transmits the block and
    counts a block error whenever any decoded information symbol differs.
    Trial t's draws sit at fixed offsets of the run's two streams (see
    MESSAGES), so runs are reproducible and trial t's block does not
    depend on the trial count; `random_message`, `frozen_from_seed` and
    `simulate_channel` give it alone.  Blocks are drawn, encoded, sent
    and decoded a chunk of trials at a time (see DECODE_CHUNK).  A
    combination channel is sampled by term and decoded on its
    `to_explicit` table.  A spec that `CodeSpec.check` refuses raises its
    SpecMismatchError.
    """
    explicit = channel.to_explicit() if isinstance(channel, LinearComboMac) else channel
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    decode, chunk = _decoder(spec, explicit)
    sample = _sampler(channel)
    mask = spec.frozen_mask()
    info = ~mask
    errors = 0
    for start in range(0, n_trials, chunk):
        stop = min(start + chunk, n_trials)
        u = _messages(spec, seed, start, stop)
        received = sample(encode(spec, u), _uniforms(spec.block_length, seed, start, stop))
        u_hat, _, _ = decode(received, np.where(mask, u, 0))
        errors += int((u_hat != u)[:, info].any(axis=1).sum())
    bler = errors / n_trials
    lo, hi = wilson_interval(errors, n_trials)
    return TrialReport(spec=spec, trials=n_trials, errors=errors, bler=bler,
                       ci_low=lo, ci_high=hi, seed=seed)
