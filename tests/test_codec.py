"""Encoder recursion, successive-cancellation decoder and the Monte Carlo
harness.  The decoder is checked against exhaustive-enumeration posteriors
of the physical system, which ties the whole branch bookkeeping together."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from macpolar import (
    LinearComboMac,
    SpecMismatchError,
    build_code,
    encode,
    frozen_from_seed,
    random_message,
    run_trials,
    sc_decode,
    simulate_channel,
    transform_minus,
    transform_plus,
    wilson_interval,
)
from macpolar import codec
from macpolar.codec import (
    DECODE_CHUNK,
    GATHER_FLOATS,
    DecodeResult,
    _decide_batch,
    _decode_batch,
    _decode_chunk,
    _inverse_cdf,
    butterfly_transform,
)
from macpolar.jsonio import load_channel
from macpolar.mac import add_table, all_vectors
from macpolar.gfq import FieldMatrix, rref
from macpolar.polarize import BranchCode, CodeSpec, all_sigs
from macpolar.linear_mac import binary2_subspaces
from conftest import identity_mac, random_combo, random_full_column_rank, random_mac


def vec_to_index(vec, q):
    """Table row of an input vector: little-endian radix q."""
    return int(sum(int(x) % q * q ** k for k, x in enumerate(vec)))


DEMO_CHANNELS = Path(__file__).resolve().parent.parent / "demos" / "channels"


def message(spec, info, frozen_seed):
    """(N, m) message with the given information symbols, in row-major
    order, and the seeded frozen ones."""
    u = frozen_from_seed(spec, frozen_seed)
    u[~spec.frozen_mask()] = info
    return u


def trivial_spec(q, m, l):
    """Code spec with every branch good and the full identity map: every
    (branch, user) slot is an information slot."""
    ident_cols = tuple(tuple(1 if i == j else 0 for i in range(m))
                       for j in range(m))
    branches = []
    from macpolar.polarize import all_sigs
    for sig in all_sigs(l):
        branches.append(BranchCode(sig=sig, in_good_set=True, r=m,
                                   a_columns=ident_cols,
                                   s_users=tuple(range(1, m + 1)),
                                   frozen=(0,) * m, z_sum=0.0,
                                   i_branch=float(m), i_detected=float(m)))
    return CodeSpec(q=q, m=m, l=l, eps=0.1, z_budget=1e-6, merge_tol=1e-9,
                    branches=tuple(branches), rate_vector=(1.0,) * m,
                    sum_rate=float(m), union_bound=0.0)


def brute_posterior(channel, u_true, received, b):
    """P(u_b | all received, true earlier branch vectors) by enumerating
    the later branch vectors."""
    q, m = channel.q, channel.m
    n = u_true.shape[0]
    big_q = q ** m
    vecs = all_vectors(q, m)
    post = np.zeros(big_q)
    later = [i for i in range(n) if i > b]
    for cand in range(big_q):
        u = u_true.copy()
        u[b] = vecs[cand]
        total = 0.0
        for fill in itertools.product(range(big_q), repeat=len(later)):
            for slot, val in zip(later, fill):
                u[slot] = vecs[val]
            x = butterfly_transform(u, q)
            pr = 1.0
            for t in range(n):
                pr *= channel.table[vec_to_index(x[t], q), received[t]]
            total += pr
        post[cand] = total
    return post / post.sum()


def test_encode_single_user_single_level():
    spec = trivial_spec(2, 1, 1)
    assert encode(spec, [[1], [1]]).tolist() == [[0], [1]]   # '-' slot carries the sum


def test_encode_all_zero():
    spec = trivial_spec(2, 2, 3)
    assert not encode(spec, message(spec, [0] * 16, frozen_seed=0)).any()


def test_encode_linearity(rng):
    spec = trivial_spec(3, 2, 3)
    a = rng.integers(0, 3, size=(8, 2))
    b = rng.integers(0, 3, size=(8, 2))
    xa, xb, xab = encode(spec, a), encode(spec, b), encode(spec, (a + b) % 3)
    assert np.array_equal((xa + xb) % 3, xab)
    # A batch is encoded message by message.
    assert np.array_equal(encode(spec, np.stack([a, b, a + b])),
                          np.stack([xa, xb, xab]))


def test_decoder_law_matches_transforms(rng):
    # Exhaustive check at one level: the posterior the decoder computes for
    # the '-' branch is the bad-transform column, and for the '+' branch
    # (with the true first vector) the good-transform column, for every
    # received pair and every conditioning value.
    mac = random_mac(rng, 2, 2, 3)
    q, m = 2, 2
    spec = trivial_spec(q, m, 1)
    minus, plus = transform_minus(mac), transform_plus(mac)
    n_y = mac.output_size
    big_q = q ** m
    for y0 in range(n_y):
        for y1 in range(n_y):
            for u0 in range(big_q):
                u_true = np.stack([all_vectors(q, m)[u0],
                                   all_vectors(q, m)[0]])
                res = sc_decode(spec, mac, np.array([y0, y1]),
                                frozen_from_seed(spec, 0),
                                genie_u=u_true, with_details=True)
                post0, post1 = res.posteriors
                col = minus.table[:, y0 * n_y + y1]
                if col.sum() > 0:
                    assert np.allclose(post0, col / col.sum(), atol=1e-12)
                col = plus.table[:, (y0 * n_y + y1) * big_q + u0]
                if col.sum() > 0:
                    assert np.allclose(post1, col / col.sum(), atol=1e-12)


def test_decoder_posterior_matches_brute_force(rng):
    # Depth 2, every branch, several random draws: the recursive evaluation
    # equals the enumerated law of the physical system given true
    # predecessors.
    mac = random_mac(rng, 2, 2, 3)
    spec = trivial_spec(2, 2, 2)
    for trial in range(5):
        u_true = random_message(spec, [trial, 0], [trial, 1])
        received = simulate_channel(mac, encode(spec, u_true), seed=[trial, 2])
        res = sc_decode(spec, mac, received, frozen_from_seed(spec, [trial, 1]),
                        genie_u=u_true, with_details=True)
        for b in range(4):
            expect = brute_posterior(mac, u_true, received, b)
            assert np.allclose(res.posteriors[b], expect, atol=1e-10)


def test_decode_recovers_direction_on_parity_channel():
    # Block length 1: the channel reveals x1+x2; the code's single branch
    # sends one information symbol through that direction.
    subs = binary2_subspaces()
    chan = LinearComboMac(2, 2, [(1.0, subs[3])]).to_explicit()
    spec = build_code(chan, 0, eps=0.2, z_budget=1e-9)
    assert spec.block_length == 1 and spec.branches[0].s_users == (1,)
    for info in range(2):
        for seed in range(3):
            u = message(spec, [info], frozen_seed=seed)
            received = simulate_channel(chan, encode(spec, u), seed=7)
            decoded = sc_decode(spec, chan, received, frozen_from_seed(spec, seed))
            assert np.array_equal(decoded, u)


@pytest.mark.parametrize("q,m,l,trials",
                         [(2, 1, 6, 250), (2, 2, 4, 250),
                          (3, 1, 5, 250), (3, 2, 2, 250)])
def test_perfect_channel_round_trip(q, m, l, trials):
    chan = identity_mac(q, m)
    spec = build_code(chan, l, eps=0.2, z_budget=1e-9)
    assert spec.sum_rate == pytest.approx(float(m))
    for trial in range(trials):
        u = random_message(spec, [trial, 0], [trial, 1])
        received = simulate_channel(chan, encode(spec, u), seed=[trial, 2])
        decoded = sc_decode(spec, chan, received, frozen_from_seed(spec, [trial, 1]))
        assert np.array_equal(decoded, u)
    # Only the frozen positions of the frozen array are read.
    assert np.array_equal(sc_decode(spec, chan, received, u), u)


def test_posterior_normalization(rng):
    mac = random_mac(rng, 2, 2, 4)
    spec = trivial_spec(2, 2, 3)
    u = random_message(spec, 1, 2)
    received = simulate_channel(mac, encode(spec, u), seed=3)
    res = sc_decode(spec, mac, received, frozen_from_seed(spec, 2), with_details=True)
    for post in res.posteriors:
        assert post.sum() == pytest.approx(1.0, abs=1e-9)


def test_genie_equivalence_on_clean_trials(rng):
    # When ordinary decoding gets the whole block right, its per-branch
    # decisions coincide with the true-predecessor decisions.
    subs = binary2_subspaces()
    chan = LinearComboMac(2, 2, [(0.2, s) for s in subs]).to_explicit()
    spec = build_code(chan, 4, eps=0.2, z_budget=0.05)
    info = ~spec.frozen_mask()
    clean = 0
    for trial in range(30):
        u_true = random_message(spec, [trial, 0], [trial, 1])
        frozen = frozen_from_seed(spec, [trial, 1])
        received = simulate_channel(chan, encode(spec, u_true), seed=[trial, 2])
        plain = sc_decode(spec, chan, received, frozen, with_details=True)
        genie = sc_decode(spec, chan, received, frozen, genie_u=u_true,
                          with_details=True)
        if np.array_equal(plain.u_hat[info], u_true[info]):
            clean += 1
            assert np.array_equal(plain.u_hat, genie.u_hat)
    assert clean > 0


def test_simulate_channel_deterministic_and_reproducible():
    subs = binary2_subspaces()
    chan = LinearComboMac(2, 2, [(1.0, subs[4])]).to_explicit()
    spec = trivial_spec(2, 2, 2)
    x = encode(spec, message(spec, np.arange(8) % 2, frozen_seed=0))
    a = simulate_channel(chan, x, seed=5)
    b = simulate_channel(chan, x, seed=5)
    assert np.array_equal(a, b)
    # deterministic channel: the output index is pinned by the input
    x_idx = [vec_to_index(x[t], 2) for t in range(4)]
    expected = [int(np.argmax(chan.table[i])) for i in x_idx]
    assert a.tolist() == expected


def test_simulate_channel_frequencies(rng):
    mac = random_mac(rng, 2, 1, 3)
    row = mac.table[1]
    n = 2 ** 11
    x = np.ones((n, 1), dtype=np.int64)
    draws = np.concatenate([simulate_channel(mac, x, seed=[97, rep])
                            for rep in range(8)])
    counts = np.bincount(draws, minlength=3) / draws.size
    for y in range(3):
        sigma = np.sqrt(row[y] * (1 - row[y]) / draws.size)
        assert abs(counts[y] - row[y]) <= 3 * sigma + 1e-9


def test_run_trials_validation_and_report(rng):
    subs = binary2_subspaces()
    chan = LinearComboMac(2, 2, [(1.0, subs[3])]).to_explicit()
    spec = build_code(chan, 2, eps=0.2, z_budget=1e-9)
    with pytest.raises(ValueError):
        run_trials(spec, chan, 0, seed=1)
    rep = run_trials(spec, chan, 100, seed=1)
    assert rep.errors == 0 and rep.trials == 100
    assert rep.union_bound == spec.union_bound
    assert rep.ci_low == 0.0
    row = rep.csv_row()
    assert len(row) == len(rep.CSV_COLUMNS)
    # reproducibility of the whole harness
    again = run_trials(spec, chan, 100, seed=1)
    assert again.csv_row() == rep.csv_row()


def test_wilson_interval_edges():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and 0 < hi < 0.2
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0 and 0.8 < lo < 1.0
    lo, hi = wilson_interval(5, 50)
    assert lo < 0.1 < hi


def test_message_mismatch_errors():
    spec = trivial_spec(2, 2, 2)
    for shape in [(4,), (3, 2), (4, 3), (2, 3, 2), (1, 2, 4, 2)]:
        with pytest.raises(SpecMismatchError):
            encode(spec, np.zeros(shape, dtype=int))
    chan = identity_mac(2, 2)
    frozen = frozen_from_seed(spec, 0)
    with pytest.raises(SpecMismatchError):
        sc_decode(spec, chan, np.zeros(3, dtype=int), frozen)
    with pytest.raises(SpecMismatchError):
        sc_decode(spec, chan, np.zeros(4, dtype=int), frozen[:3])
    with pytest.raises(SpecMismatchError):
        sc_decode(spec, identity_mac(3, 2), np.zeros(4, dtype=int), frozen)
    with pytest.raises(SpecMismatchError):
        simulate_channel(chan, np.zeros((4, 3), dtype=int), seed=0)


def test_decide_branch_refuses_a_non_invertible_map():
    # Equal columns do not determine the information users; the decoder
    # refuses a spec that holds them rather than picking a vector.
    branch = BranchCode(sig="", in_good_set=True, r=2,
                        a_columns=((1, 0), (1, 0)), s_users=(1, 2),
                        frozen=(0, 0), z_sum=0.0, i_branch=2.0, i_detected=2.0)
    spec = CodeSpec(q=2, m=2, l=0, eps=0.2, z_budget=1e-9, merge_tol=1e-9,
                    branches=(branch,), rate_vector=(1.0, 1.0), sum_rate=2.0,
                    union_bound=0.0)
    with pytest.raises(SpecMismatchError, match="RREF"):
        sc_decode(spec, identity_mac(2, 2), np.zeros(1, dtype=int),
                  np.zeros((1, 2), dtype=int))


def test_frozen_symbols_reproducible():
    subs = binary2_subspaces()
    chan = LinearComboMac(2, 2, [(1.0, subs[1])]).to_explicit()
    spec = build_code(chan, 3, eps=0.2, z_budget=1e-9)
    assert np.array_equal(frozen_from_seed(spec, 42), frozen_from_seed(spec, 42))
    assert not np.array_equal(frozen_from_seed(spec, 42), frozen_from_seed(spec, 43))
    # One generator per seed fills the masked positions in row-major order
    # (branch by branch, users ascending), 0 elsewhere.
    mask = spec.frozen_mask()
    assert mask.shape == (8, 2) and 0 < mask.sum() < 16
    draws = lambda seed, k: np.random.default_rng([seed]).integers(0, 2, size=k)
    frozen = frozen_from_seed(spec, 42)
    assert frozen[mask].tolist() == draws(42, mask.sum()).tolist()
    assert not frozen[~mask].any()
    u = random_message(spec, 5, 42)
    assert np.array_equal(u[mask], frozen[mask])
    assert u[~mask].tolist() == draws(5, (~mask).sum()).tolist()


# -- batched decoder against the one-block recursion --------------------------------

def sc_decode_reference(spec, channel, received, frozen, genie_u=None):
    """The one-block recursion the batched decoder replaced: node (k, pi)
    at decoding index a is evaluated on demand and cached by a per-node
    stamp, and partial sums settle pair by pair.  `frozen` is an (N, m)
    array read at the frozen users only.  Returns a DecodeResult whose
    fallbacks count the node likelihoods that vanished, and the
    information symbols as the (sig, user) slots list them: decoded
    branches in order, each one's information users in order."""
    q, m, l = spec.q, spec.m, spec.l
    n = spec.block_length
    big_q = q ** m
    add = add_table(q, m)
    vecs = all_vectors(q, m)
    powers = q ** np.arange(m)
    table = channel.table

    like = [np.zeros((1 << k, big_q)) for k in range(l + 1)]
    stamp = [np.full(1 << k, -1, dtype=np.int64) for k in range(l + 1)]
    decided = [np.zeros((n, m), dtype=np.int64) for _ in range(l + 1)]
    fallbacks = [0]

    def compute(k, pi, a):
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
                v = (l0[add] * l1).sum(axis=1)
            else:
                sib = decided[k][pi + (a - 1) * half]
                v = l0[add[int(sib @ powers)]] * l1
        mx = v.max()
        if mx <= 0:
            fallbacks[0] += 1
            v = np.full(big_q, 1.0 / big_q)
        else:
            v = v / mx
        like[k][pi] = v
        stamp[k][pi] = a
        return v

    def settle(k, pi, a_pair):
        half = 1 << k
        i0 = pi + (2 * a_pair) * half
        i1 = pi + (2 * a_pair + 1) * half
        decided[k + 1][i0] = (decided[k][i0] + decided[k][i1]) % q
        decided[k + 1][i1] = decided[k][i1]
        if k + 1 < l and a_pair & 1:
            settle(k + 1, pi, a_pair >> 1)
            settle(k + 1, pi + half, a_pair >> 1)

    u_hat = np.zeros((n, m), dtype=np.int64)
    posteriors = []
    info = []
    for b, branch in enumerate(spec.branches):
        if branch.in_good_set and branch.r > 0:
            post = compute(0, 0, b)
            post = post / post.sum()
            posteriors.append(post.copy())
            u = decide_branch_reference(branch, post, frozen[b], q, m, powers)
            info += [int(u[k - 1]) for k in branch.s_users]
        else:
            u = frozen[b].copy()
            posteriors.append(None)
        u_hat[b] = u
        decided[0][b] = u if genie_u is None else genie_u[b]
        if b & 1:
            settle(0, 0, b >> 1)
    return DecodeResult(u_hat=u_hat, posteriors=posteriors,
                        fallbacks=fallbacks[0]), info


def decide_branch_reference(branch, post, frozen, q, m, powers):
    """Sequential per-direction ML over one block's candidate set; frozen
    is the branch's row of frozen symbols."""
    a = np.array(branch.a_columns, dtype=np.int64).reshape(-1, m).T
    free = [k - 1 for k in branch.s_users]
    base = np.zeros(m, dtype=np.int64)
    for k in range(1, m + 1):
        if branch.frozen[k - 1]:
            base[k - 1] = frozen[k - 1]
    cand = np.repeat(base.reshape(1, -1), q ** len(free), axis=0)
    combos = all_vectors(q, len(free))
    for j, coord in enumerate(free):
        cand[:, coord] = combos[:, j]
    cand_idx = cand @ powers
    zmat = (cand @ a) % q
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


def random_canonical_map(rng, q, m, r):
    """(a_columns, s_users) of a random canonical information map: the RREF
    of a random full-rank r x m matrix, with its pivot columns as users."""
    red, pivots = rref(FieldMatrix(random_full_column_rank(rng, m, r, q).data.T, q))
    return tuple(map(tuple, red.data.tolist())), tuple(p + 1 for p in pivots)


def good_branch(a_columns, s_users, m, sig=""):
    r = len(s_users)
    return BranchCode(sig=sig, in_good_set=True, r=r, a_columns=a_columns,
                      s_users=s_users, frozen=tuple(int(k not in s_users)
                                                    for k in range(1, m + 1)),
                      z_sum=0.0, i_branch=float(r), i_detected=float(r))


def random_spec(rng, q, m, l):
    """Code spec with a random mix of frozen branches and good branches
    whose information maps are random canonical ones."""
    branches = []
    for sig in all_sigs(l):
        r = int((rng.random(m) < 0.6).sum())
        if rng.random() < 0.3 or not r:
            branches.append(BranchCode(sig=sig, in_good_set=False, r=0,
                                       a_columns=(), s_users=(), frozen=(1,) * m,
                                       z_sum=1.0, i_branch=0.0, i_detected=0.0))
            continue
        branches.append(good_branch(*random_canonical_map(rng, q, m, r), m, sig))
    n = 1 << l
    rates = tuple(sum(1 - b.frozen[k] for b in branches) / n for k in range(m))
    spec = CodeSpec(q=q, m=m, l=l, eps=0.2, z_budget=1.0, merge_tol=1e-9,
                    branches=tuple(branches), rate_vector=rates,
                    sum_rate=sum(b.r for b in branches) / n, union_bound=0.0)
    spec.check()
    return spec


@pytest.mark.parametrize("q,m", [(3, 2), (2, 3), (3, 3), (2, 4)])
def test_decisions_match_reference_on_tied_posteriors(q, m):
    # Small integer weights make direction scores that tie exactly before
    # normalization; after it, a tie breaks the reference's way only if the
    # same masses are summed in the same order.
    rng = np.random.default_rng(70 + 10 * q + m)
    powers = q ** np.arange(m)
    for _ in range(50):
        r = int(rng.integers(1, m + 1))
        branch = good_branch(*random_canonical_map(rng, q, m, r), m)
        weights = rng.integers(1, 4, size=(40, q ** m)).astype(float)
        post = weights / weights.sum(axis=1, keepdims=True)
        base = rng.integers(0, q, size=(40, m)) * np.array(branch.frozen)
        want = [decide_branch_reference(branch, p, b, q, m, powers) @ powers
                for p, b in zip(post, base)]
        assert _decide_batch(branch, post, base, q, m).tolist() == want


def assert_batch_matches_reference(spec, chan, received, frozen, genie=None):
    """The batched decoder on a (T, N) block of received words makes the
    recursion's decisions trial by trial, with its posteriors to 1e-12."""
    info = ~spec.frozen_mask()
    u_hat, posts, fallbacks = _decode_batch(spec, chan, received, frozen, genie,
                                            with_details=True)
    for t in range(len(received)):
        ref, ref_info = sc_decode_reference(spec, chan, received[t], frozen[t],
                                            None if genie is None else genie[t])
        assert np.array_equal(u_hat[t], ref.u_hat)
        assert u_hat[t][info].tolist() == ref_info
        assert fallbacks[t] == ref.fallbacks
        for b, want in enumerate(ref.posteriors):
            if want is None:
                assert posts[b] is None
            else:
                assert np.abs(posts[b][t] - want).max() <= 1e-12
    # The public one-block entry point runs the same decoder.
    one = sc_decode(spec, chan, received[0], frozen[0],
                    genie_u=None if genie is None else genie[0], with_details=True)
    assert np.array_equal(one.u_hat, u_hat[0]) and one.fallbacks == fallbacks[0]


def sampled_blocks(spec, chan, trials, seed):
    """(received, frozen symbols, true messages) of `trials` blocks sent
    through the channel, as (T, N) and (T, N, m) arrays."""
    u = np.stack([random_message(spec, [seed, t, 0], [seed, t, 1])
                  for t in range(trials)])
    received = np.stack([simulate_channel(chan, x, [seed, t, 2])
                         for t, x in enumerate(encode(spec, u))])
    frozen = np.stack([frozen_from_seed(spec, [seed, t, 1]) for t in range(trials)])
    return received, frozen, u


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_batch_decoder_matches_reference(q, m):
    rng = np.random.default_rng(1000 * q + m)
    depth = {1: 4, 2: 3, 3: 2}[m]
    explicit = random_mac(rng, q, m, 3)
    combo = random_combo(rng, q, m, max_terms=2 if m == 1 else 3).to_explicit()
    cases = [(random_spec(rng, q, m, depth), explicit),
             (random_spec(rng, q, m, depth), combo),
             (build_code(combo, depth, eps=0.2, z_budget=0.5), combo)]
    for spec, chan in cases:
        n = spec.block_length
        for trials in (1, 3, DECODE_CHUNK + 1):
            received, frozen, genie = sampled_blocks(spec, chan, trials, trials)
            assert_batch_matches_reference(spec, chan, received, frozen)
            assert_batch_matches_reference(spec, chan, received, frozen, genie)
        # Received words the code cannot produce: zero likelihoods and ties.
        received = rng.integers(0, chan.output_size, size=(3, n))
        frozen = np.stack([frozen_from_seed(spec, [7, t]) for t in range(3)])
        assert_batch_matches_reference(spec, chan, received, frozen)


@pytest.mark.parametrize("q,m", [(2, 3), (3, 2)])
def test_posteriors_do_not_depend_on_the_batch(q, m):
    # Each trial's posteriors are bit for bit those of decoding it alone, so
    # exact ties break the same way in run_trials' chunks as in sc_decode.
    rng = np.random.default_rng(40 + q)
    chan = random_mac(rng, q, m, 3)
    spec = trivial_spec(q, m, 3)
    received, frozen, _ = sampled_blocks(spec, chan, 9, 5)
    _, posts, _ = _decode_batch(spec, chan, received, frozen, with_details=True)
    for t in range(9):
        _, alone, _ = _decode_batch(spec, chan, received[t:t + 1], frozen[t:t + 1],
                                    with_details=True)
        assert all(np.array_equal(p[t], a[0]) for p, a in zip(posts, alone))


def test_batch_decoder_matches_reference_on_demo_codes():
    # The parity code's posteriors are exact ties between candidates;
    # the five-component code is the one criterion 9 simulates.
    parity = load_channel(str(DEMO_CHANNELS / "parity_revealer.json")).to_explicit()
    five = load_channel(str(DEMO_CHANNELS / "five_component.json")).to_explicit()
    for chan, l, z in [(parity, 6, 1e-9), (five, 6, 1e-2)]:
        spec = build_code(chan, l, eps=0.2, z_budget=z)
        assert spec.good_count > 0
        received, frozen, genie = sampled_blocks(spec, chan, 5, 3)
        assert_batch_matches_reference(spec, chan, received, frozen)
        assert_batch_matches_reference(spec, chan, received, frozen, genie)


def test_decoder_counts_underflow_fallbacks():
    # Noiseless channel, N=2: the '-' branch is frozen, the '+' branch is
    # conditioned on it.  Decoded against the wrong frozen symbol, the
    # received block has probability zero and the '+' node falls back to the
    # uniform likelihood once; against the right one, never.
    frozen = BranchCode(sig="-", in_good_set=False, r=0, a_columns=(),
                        s_users=(), frozen=(1,), z_sum=1.0, i_branch=0.0,
                        i_detected=0.0)
    good = BranchCode(sig="+", in_good_set=True, r=1, a_columns=((1,),),
                      s_users=(1,), frozen=(0,), z_sum=0.0, i_branch=1.0,
                      i_detected=1.0)
    spec = CodeSpec(q=2, m=1, l=1, eps=0.2, z_budget=1e-9, merge_tol=1e-9,
                    branches=(frozen, good), rate_vector=(0.5,), sum_rate=0.5,
                    union_bound=0.0)
    spec.check()
    chan = identity_mac(2, 1)
    u = message(spec, [1], frozen_seed=0)
    received = encode(spec, u)[:, 0]
    frozen = frozen_from_seed(spec, 0)
    clean = sc_decode(spec, chan, received, frozen, with_details=True)
    assert clean.fallbacks == 0 and np.array_equal(clean.u_hat, u)
    wrong = np.where(spec.frozen_mask(), 1 - frozen, 0)
    res = sc_decode(spec, chan, received, wrong, with_details=True)
    assert res.fallbacks == 1
    assert np.array_equal(res.posteriors[1], [0.5, 0.5])


def test_inverse_cdf_never_runs_past_the_last_output():
    # Rows that validation accepts (sums within 1e-12 of 1) but whose
    # cumulative total is below a possible uniform draw.
    short = np.cumsum([0.5, 0.4999999999995])
    assert short[-1] < 0.99999999999995
    u = np.array([0.0, 0.25, 0.5, 0.99999999999995, np.nextafter(1.0, 0.0)])
    assert _inverse_cdf(short, u).tolist() == [0, 0, 1, 1, 1]
    # Trailing outputs with zero mass are never drawn, leading ones neither.
    trailing = np.cumsum([0.3, 0.6999999999995, 0.0, 0.0])
    assert _inverse_cdf(trailing, u).tolist() == [0, 0, 1, 1, 1]
    leading = np.cumsum([0.0, 0.0, 0.4, 0.6])
    assert _inverse_cdf(leading, u).tolist() == [2, 2, 3, 3, 3]
    # Below the total it is the searchsorted rule.
    row = np.cumsum([0.1, 0.0, 0.2, 0.7])
    draws = np.random.default_rng(3).random(1000)
    assert np.array_equal(_inverse_cdf(row, draws),
                          np.searchsorted(row, draws, side="right"))


def test_run_trials_blocks_do_not_depend_on_the_trial_count(monkeypatch):
    # Trial t's received block comes from its own generator: the same at 5
    # trials as at 70, where the trials fill one chunk and part of another.
    chan = load_channel(str(DEMO_CHANNELS / "five_component.json")).to_explicit()
    spec = build_code(chan, 4, eps=0.2, z_budget=0.05)
    seen = []

    def recording(spec, channel, received, *args, **kwargs):
        seen.append(received.copy())
        return _decode_batch(spec, channel, received, *args, **kwargs)

    monkeypatch.setattr(codec, "_decode_batch", recording)
    short = run_trials(spec, chan, 5, seed=11)
    first = np.concatenate(seen)
    seen.clear()
    long = run_trials(spec, chan, 70, seed=11)
    assert [len(r) for r in seen] == [DECODE_CHUNK, 70 - DECODE_CHUNK]
    blocks = np.concatenate(seen)
    assert np.array_equal(blocks[:5], first)
    monkeypatch.undo()
    # The chunked harness counts the errors of decoding each trial alone.
    info = ~spec.frozen_mask()
    wrong = []
    for t in range(70):
        u = random_message(spec, [11, t, 0], [11, t, 1])
        received = simulate_channel(chan, encode(spec, u), seed=[11, t, 2])
        assert np.array_equal(received, blocks[t])
        u_hat = sc_decode(spec, chan, received, frozen_from_seed(spec, [11, t, 1]))
        wrong.append(not np.array_equal(u_hat[info], u[info]))
    assert long.errors == sum(wrong) and short.errors == sum(wrong[:5])


def test_decode_chunk_bounds_the_minus_gather():
    # A minus node's gather and its product temporary take chunk * N * q^2m
    # floats together: 1.5 GB at 64 trials for q^m = 27 and N = 4096.
    chunk = _decode_chunk(4096, 27)
    assert chunk == 5
    assert chunk * 4096 * 27 ** 2 <= GATHER_FLOATS < (chunk + 1) * 4096 * 27 ** 2
    # The codes of the `decode` benchmark workload (q^m = 4, N <= 1024)
    # keep a full chunk.
    for n in (16, 256, 1024):
        assert _decode_chunk(n, 4) == DECODE_CHUNK == 64
    assert _decode_chunk(1 << 20, 125) == 1    # at least one trial
