"""Encoder recursion, successive-cancellation decoder and the Monte Carlo
harness.  The decoder is checked against exhaustive-enumeration posteriors
of the physical system, which ties the whole branch bookkeeping together."""

import itertools

import numpy as np
import pytest

from macpolar import (
    DiscreteMac,
    LinearComboMac,
    MessageAssignment,
    SpecMismatchError,
    build_code,
    encode,
    frozen_from_seed,
    message_from_info,
    random_message,
    run_trials,
    sc_decode,
    simulate_channel,
    transform_minus,
    transform_plus,
    wilson_interval,
)
from macpolar.codec import (
    CodewordBlock,
    _decide_branch,
    butterfly_transform,
    message_matrix,
)
from macpolar.mac import all_vectors, vec_to_index
from macpolar.polarize import BranchCode, CodeSpec
from macpolar.linear_mac import binary2_subspaces
from conftest import random_mac


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
    msg = message_from_info(spec, [1, 1], frozen_seed=0)
    block = encode(spec, msg)
    assert block.x.tolist() == [[0], [1]]    # '-' slot carries the sum


def test_encode_all_zero():
    spec = trivial_spec(2, 2, 3)
    msg = message_from_info(spec, [0] * 16, frozen_seed=0)
    assert not encode(spec, msg).x.any()


def test_encode_linearity(rng):
    spec = trivial_spec(3, 2, 3)
    n_info = len(spec.info_slots())
    a = rng.integers(0, 3, size=n_info)
    b = rng.integers(0, 3, size=n_info)
    xa = encode(spec, message_from_info(spec, a, 0)).x
    xb = encode(spec, message_from_info(spec, b, 0)).x
    xab = encode(spec, message_from_info(spec, (a + b) % 3, 0)).x
    assert np.array_equal((xa + xb) % 3, xab)


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
                                frozen=frozen_from_seed(spec, 0),
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
        msg = random_message(spec, [trial, 0], [trial, 1])
        u_true = message_matrix(spec, msg)
        block = encode(spec, msg)
        received = simulate_channel(mac, block, seed=[trial, 2])
        res = sc_decode(spec, mac, received, frozen=msg.frozen,
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
            msg = message_from_info(spec, [info], frozen_seed=seed)
            block = encode(spec, msg)
            received = simulate_channel(chan, block, seed=7)
            decoded = sc_decode(spec, chan, received, frozen=msg.frozen)
            assert decoded.info == msg.info


@pytest.mark.parametrize("q,m,l,trials",
                         [(2, 1, 6, 250), (2, 2, 4, 250),
                          (3, 1, 5, 250), (3, 2, 2, 250)])
def test_perfect_channel_round_trip(q, m, l, trials):
    chan = DiscreteMac.identity(q, m)
    spec = build_code(chan, l, eps=0.2, z_budget=1e-9)
    assert spec.sum_rate == pytest.approx(float(m))
    for trial in range(trials):
        msg = random_message(spec, [trial, 0], [trial, 1])
        block = encode(spec, msg)
        received = simulate_channel(chan, block, seed=[trial, 2])
        decoded = sc_decode(spec, chan, received, frozen=msg.frozen)
        assert decoded.info == msg.info


def test_posterior_normalization(rng):
    mac = random_mac(rng, 2, 2, 4)
    spec = trivial_spec(2, 2, 3)
    msg = random_message(spec, 1, 2)
    received = simulate_channel(mac, encode(spec, msg), seed=3)
    res = sc_decode(spec, mac, received, frozen=msg.frozen, with_details=True)
    for post in res.posteriors:
        assert post.sum() == pytest.approx(1.0, abs=1e-9)


def test_genie_equivalence_on_clean_trials(rng):
    # When ordinary decoding gets the whole block right, its per-branch
    # decisions coincide with the true-predecessor decisions.
    subs = binary2_subspaces()
    chan = LinearComboMac(2, 2, [(0.2, s) for s in subs]).to_explicit()
    spec = build_code(chan, 4, eps=0.2, z_budget=0.05)
    clean = 0
    for trial in range(30):
        msg = random_message(spec, [trial, 0], [trial, 1])
        u_true = message_matrix(spec, msg)
        block = encode(spec, msg)
        received = simulate_channel(chan, block, seed=[trial, 2])
        plain = sc_decode(spec, chan, received, frozen=msg.frozen,
                          with_details=True)
        genie = sc_decode(spec, chan, received, frozen=msg.frozen,
                          genie_u=u_true, with_details=True)
        if plain.message.info == msg.info:
            clean += 1
            assert np.array_equal(plain.u_hat, genie.u_hat)
    assert clean > 0


def test_simulate_channel_deterministic_and_reproducible():
    subs = binary2_subspaces()
    chan = LinearComboMac(2, 2, [(1.0, subs[4])]).to_explicit()
    spec = trivial_spec(2, 2, 2)
    msg = message_from_info(spec, list(range(8)), frozen_seed=0)
    block = encode(spec, msg)
    a = simulate_channel(chan, block, seed=5)
    b = simulate_channel(chan, block, seed=5)
    assert np.array_equal(a, b)
    # deterministic channel: the output index is pinned by the input
    x_idx = [vec_to_index(block.x[t], 2) for t in range(4)]
    expected = [int(np.argmax(chan.table[i])) for i in x_idx]
    assert a.tolist() == expected


def test_simulate_channel_frequencies(rng):
    mac = random_mac(rng, 2, 1, 3)
    row = mac.table[1]
    n = 2 ** 11
    block = CodewordBlock(q=2, m=1, l=11, x=np.ones((n, 1), dtype=np.int64))
    draws = np.concatenate([simulate_channel(mac, block, seed=[97, rep])
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
    with pytest.raises(SpecMismatchError):
        message_from_info(spec, [0, 1], frozen_seed=0)   # wrong count
    msg = MessageAssignment(info={}, frozen={})
    with pytest.raises(SpecMismatchError):
        encode(spec, msg)
    chan = DiscreteMac.identity(2, 2)
    with pytest.raises(SpecMismatchError):
        sc_decode(spec, chan, np.zeros(3, dtype=int), frozen_seed=0)
    with pytest.raises(SpecMismatchError):
        sc_decode(spec, DiscreteMac.identity(3, 2), np.zeros(4, dtype=int),
                  frozen_seed=0)


def test_decide_branch_refuses_a_non_invertible_map():
    # Equal columns leave two candidate vectors after the direction
    # decisions; the decoder refuses rather than picking one.
    branch = BranchCode(sig="", in_good_set=True, r=2,
                        a_columns=((1, 0), (1, 0)), s_users=(1, 2),
                        frozen=(0, 0), z_sum=0.0, i_branch=2.0, i_detected=2.0)
    with pytest.raises(SpecMismatchError, match="2 candidate"):
        _decide_branch(branch, np.full(4, 0.25), {}, 2, 2, all_vectors(2, 2),
                       np.array([1, 2]))


def test_frozen_symbols_reproducible():
    subs = binary2_subspaces()
    chan = LinearComboMac(2, 2, [(1.0, subs[1])]).to_explicit()
    spec = build_code(chan, 3, eps=0.2, z_budget=1e-9)
    assert frozen_from_seed(spec, 42) == frozen_from_seed(spec, 42)
    assert frozen_from_seed(spec, 42) != frozen_from_seed(spec, 43)
