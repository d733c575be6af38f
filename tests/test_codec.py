"""Encoder recursion, successive-cancellation decoder and the Monte Carlo
harness.  The decoder is checked against exhaustive-enumeration posteriors
of the physical system, which ties the whole branch bookkeeping together."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from macpolar import (
    DiscreteMac,
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
    _coset_count,
    _coset_fits,
    _coset_leaves,
    _coset_tables,
    _decide_batch,
    _decision_table,
    _decode_coset,
    _decode_float,
    _decoder,
    _inverse_cdf,
    butterfly_transform,
)
from macpolar.jsonio import load_channel
from macpolar.mac import add_table, all_vectors
from macpolar.gfq import rref
from macpolar.polarize import BranchCode, all_sigs
from macpolar.linear_mac import binary2_subspaces, subspace_lattice
from conftest import identity_mac, random_combo, random_full_column_rank, random_mac
from oracles import (
    affine_sets,
    butterfly_reference,
    set_difference,
    set_translate,
    spec_from_branches,
)


def decode_batch(spec, chan, *args, **kwargs):
    """T blocks through the decoder `sc_decode` and `run_trials` set up."""
    return _decoder(spec, chan)[0](*args, **kwargs)


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
    return spec_from_branches(branches, q=q, m=m, l=l, eps=0.1, z_budget=1e-6,
                              merge_tol=1e-9, rate_vector=(1.0,) * m,
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


@pytest.mark.parametrize("q,m,l", [(2, 2, 6), (3, 2, 5), (131, 1, 3)])
def test_encode_matches_the_int64_butterfly(q, m, l):
    # The encoder may run its stages in a narrower dtype; its output is the
    # int64 stage-by-stage butterfly's, values and dtype, for one message
    # and for a batch.  q = 131 is past the 8-bit range of 2q - 2.
    rng = np.random.default_rng(q * 100 + l)
    spec = trivial_spec(q, m, l)
    batch = rng.integers(-q, 2 * q, size=(5, 1 << l, m))
    batch[0] = q - 1            # every first-stage sum is 2q - 2
    for u in (batch[1], batch):
        x = encode(spec, u)
        assert x.dtype == np.int64
        assert np.array_equal(x, butterfly_reference(u, q))


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
        u_true = random_message(spec, 0, trial)
        received = simulate_channel(mac, encode(spec, u_true), 0, trial)
        res = sc_decode(spec, mac, received, frozen_from_seed(spec, 0, trial),
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
        u = random_message(spec, 0, trial)
        received = simulate_channel(chan, encode(spec, u), 0, trial)
        decoded = sc_decode(spec, chan, received, frozen_from_seed(spec, 0, trial))
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
        u_true = random_message(spec, 0, trial)
        frozen = frozen_from_seed(spec, 0, trial)
        received = simulate_channel(chan, encode(spec, u_true), 0, trial)
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
    draws = np.concatenate([simulate_channel(mac, x, 97, rep)
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
    spec = spec_from_branches([branch], q=2, m=2, l=0, eps=0.2, z_budget=1e-9,
                              merge_tol=1e-9, rate_vector=(1.0, 1.0), sum_rate=2.0,
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
    # Trial t's message is the N*m uniforms of the message stream from
    # output t*N*m on, in row-major order (branch by branch, users
    # ascending), each symbol floor(u q); its frozen array keeps the
    # masked ones, 0 elsewhere.
    mask = spec.frozen_mask()
    assert mask.shape == (8, 2) and 0 < mask.sum() < 16
    bits = np.random.PCG64([codec.MESSAGES, 42])
    draws = (np.random.Generator(bits).random((3, 16)) * 2).astype(int)
    for t in range(3):
        u = random_message(spec, 42, t)
        assert u.tolist() == draws[t].reshape(8, 2).tolist()
        frozen = frozen_from_seed(spec, 42, t)
        assert np.array_equal(frozen[mask], u[mask]) and not frozen[~mask].any()


@pytest.mark.parametrize("q", [3, 7, 2039, 2053, 65537])
def test_message_symbols_are_the_floor_of_u_q(q):
    # Exactly floor(u q) for the uniform u = k 2^-53 that Generator.random
    # makes of the same output; from q = 2^11 on, k keeps its top
    # 64 - bits(q) bits so that k q fits 64 bits.
    spec = trivial_spec(q, 1, 4)
    uniforms = np.random.Generator(np.random.PCG64([codec.MESSAGES, 9])).random(48)
    cut = max(0, q.bit_length() - 11)
    want = [(int(u * 2 ** 53) >> cut) * q >> (53 - cut) for u in uniforms.tolist()]
    got = np.concatenate([random_message(spec, 9, t)[:, 0] for t in range(3)])
    assert got.tolist() == want
    assert 0 <= min(want) and max(want) < q


def test_streams_repeat_and_differ():
    spec = trivial_spec(3, 2, 3)
    first = random_message(spec, 5, 2)
    assert np.array_equal(first, random_message(spec, 5, 2))
    assert not np.array_equal(first, random_message(spec, 6, 2))
    assert not np.array_equal(first, random_message(spec, 5, 3))
    # Trial t's block starts at output t * width of its stream.
    whole = codec._stream(7, codec.CHANNEL, 0, 10).random_raw(40)
    assert np.array_equal(codec._stream(7, codec.CHANNEL, 3, 10).random_raw(10), whole[30:])
    # No two (seed, stream) keys share a state, not even a seed past 2^32
    # whose high word meets the other's stream: a key with a trailing zero
    # word seeds the same state as the key without it.
    keys = [(seed, stream) for seed in (0, 1, 5, 2 ** 32, 2 ** 32 + 5, 2 ** 64 + 5)
            for stream in (codec.MESSAGES, codec.CHANNEL)]
    firsts = {tuple(codec._stream(seed, stream, 0, 1).random_raw(4).tolist())
              for seed, stream in keys}
    assert len(firsts) == len(keys)


def term_draw_channels():
    """Seeded combinations on three shapes, the two demo combinations, and
    weights summing to 1 - 1e-13 whose last term leaves the sum unmoved."""
    rng = np.random.default_rng(81)
    channels = [random_combo(rng, q, m, max_terms=4) for q, m in ((2, 2), (3, 2), (2, 3))]
    channels += [load_channel(str(DEMO_CHANNELS / name))
                 for name in ("five_component.json", "parity_revealer.json")]
    subs = subspace_lattice(2, 2).subspaces
    channels.append(LinearComboMac(2, 2, [(0.25, subs[0]), (0.5, subs[2]),
                                          (0.25 - 1e-13, subs[3]), (1e-20, subs[4])]))
    return channels


def test_term_draw_is_the_tables_inverse_cdf():
    # For every input, a combination's output drawn by term is the one the
    # inverse CDF of its `to_explicit` row picks, at the cumulative
    # weights, just below them, and at or above the total.
    for combo in term_draw_channels():
        q, m = combo.q, combo.m
        explicit = combo.to_explicit()
        cum = np.cumsum([w for w, _ in combo.terms])
        uniforms = np.concatenate([[0.0], cum, np.nextafter(cum, 0.0),
                                   [np.nextafter(cum[-1], 2.0), np.nextafter(1.0, 0.0), 1.0]])
        shape = (q ** m, len(uniforms))
        x = np.broadcast_to(all_vectors(q, m)[:, None, :], shape + (m,))
        got = codec._sampler(combo)(x, np.broadcast_to(uniforms, shape))
        for i, row in enumerate(explicit.table):
            assert got[i].tolist() == _inverse_cdf(np.cumsum(row), uniforms).tolist()
        assert np.array_equal(codec._sampler(explicit)(x, np.broadcast_to(uniforms, shape)), got)
    # The last channel's last term, 1e-20, does not move the float sum, so
    # a draw at or above the total takes the first term that reaches it.
    assert cum[-1] == cum[-2] < 1.0
    above = uniforms >= cum[-1]
    assert (got[:, above] == combo.output_indices()[-2][:, None]).all()
    assert not np.isin(got, combo.output_indices()[-1]).any()


def test_run_trials_on_a_combination_is_run_trials_on_its_table():
    errors = 0
    for combo in term_draw_channels():
        spec = build_code(combo, 3, eps=0.2, z_budget=0.5)
        by_term = run_trials(spec, combo, 70, seed=3)
        assert by_term.csv_row() == run_trials(spec, combo.to_explicit(), 70, seed=3).csv_row()
        errors += by_term.errors
    assert errors > 0


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
    red, pivots = rref(random_full_column_rank(rng, m, r, q).T, q)
    return tuple(map(tuple, red.tolist())), tuple(p + 1 for p in pivots)


def good_branch(a_columns, s_users, m, sig=""):
    r = len(s_users)
    return BranchCode(sig=sig, in_good_set=True, r=r, a_columns=a_columns,
                      s_users=s_users, frozen=tuple(int(k not in s_users)
                                                    for k in range(1, m + 1)),
                      z_sum=0.0, i_branch=float(r), i_detected=float(r))


def random_spec(rng, q, m, l, good=None):
    """Code spec with a random mix of frozen branches and good branches
    whose information maps are random canonical ones; `good`, when given,
    lists the indices of the good branches."""
    branches = []
    for i, sig in enumerate(all_sigs(l)):
        if good is None:
            r = int((rng.random(m) < 0.6).sum())
            r = 0 if rng.random() < 0.3 else r
        else:
            r = int(rng.integers(1, m + 1)) if i in good else 0
        if not r:
            branches.append(BranchCode(sig=sig, in_good_set=False, r=0,
                                       a_columns=(), s_users=(), frozen=(1,) * m,
                                       z_sum=1.0, i_branch=0.0, i_detected=0.0))
            continue
        branches.append(good_branch(*random_canonical_map(rng, q, m, r), m, sig))
    n = 1 << l
    rates = tuple(sum(1 - b.frozen[k] for b in branches) / n for k in range(m))
    spec = spec_from_branches(branches, q=q, m=m, l=l, eps=0.2, z_budget=1.0,
                              merge_tol=1e-9, rate_vector=rates,
                              sum_rate=sum(b.r for b in branches) / n, union_bound=0.0)
    spec.check()
    return spec


def subtree_specs(rng, q, m, l):
    """Specs whose frozen branches fill whole subtrees: no good branch,
    only the last one, and good branches in the upper half only, which
    leaves the lower half (2^(l-1) branches) frozen."""
    n = 1 << l
    upper = [i for i in range(n // 2, n) if rng.random() < 0.6] or [n - 1]
    return [random_spec(rng, q, m, l, good) for good in ([], [n - 1], upper)]


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
        assert _decide_batch(branch.a_columns, branch.s_users, post, base, q, m).tolist() == want


def assert_batch_matches_reference(spec, chan, received, frozen, genie=None):
    """The batched decoder on a (T, N) block of received words makes the
    recursion's decisions trial by trial, with its posteriors to 1e-12."""
    info = ~spec.frozen_mask()
    u_hat, posts, fallbacks = decode_batch(spec, chan, received, frozen, genie,
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
    u = np.stack([random_message(spec, seed, t) for t in range(trials)])
    received = np.stack([simulate_channel(chan, x, seed, t)
                         for t, x in enumerate(encode(spec, u))])
    frozen = np.stack([frozen_from_seed(spec, seed, t) for t in range(trials)])
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
    subtrees = subtree_specs(np.random.default_rng(2000 * q + m), q, m, depth)
    cases += [(spec, chan) for spec in subtrees for chan in (explicit, combo)]
    for spec, chan in cases:
        n = spec.block_length
        for trials in (1, 3, DECODE_CHUNK + 1):
            received, frozen, genie = sampled_blocks(spec, chan, trials, trials)
            assert_batch_matches_reference(spec, chan, received, frozen)
            assert_batch_matches_reference(spec, chan, received, frozen, genie)
        # Received words the code cannot produce: zero likelihoods and ties.
        received = rng.integers(0, chan.output_size, size=(3, n))
        frozen = np.stack([frozen_from_seed(spec, 7, t) for t in range(3)])
        assert_batch_matches_reference(spec, chan, received, frozen)


@pytest.mark.parametrize("q,m", [(2, 3), (3, 2)])
def test_posteriors_do_not_depend_on_the_batch(q, m):
    # Each trial's posteriors are bit for bit those of decoding it alone, so
    # exact ties break the same way in run_trials' chunks as in sc_decode.
    rng = np.random.default_rng(40 + q)
    chan = random_mac(rng, q, m, 3)
    spec = trivial_spec(q, m, 3)
    received, frozen, _ = sampled_blocks(spec, chan, 9, 5)
    _, posts, _ = decode_batch(spec, chan, received, frozen, with_details=True)
    for t in range(9):
        _, alone, _ = decode_batch(spec, chan, received[t:t + 1], frozen[t:t + 1],
                                   with_details=True)
        assert all(np.array_equal(p[t], a[0]) for p, a in zip(posts, alone))


@pytest.mark.parametrize("bad", ["-1", "output_size"])
def test_sc_decode_refuses_received_symbols_out_of_range(bad):
    # -1 once read as the channel's last output, output_size raised a
    # bare IndexError.
    chan = load_channel(str(DEMO_CHANNELS / "five_component.json")).to_explicit()
    spec = build_code(chan, 3, eps=0.2, z_budget=1e-2)
    received = np.zeros(spec.block_length, dtype=np.int64)
    received[2] = -1 if bad == "-1" else chan.output_size
    with pytest.raises(SpecMismatchError, match="received symbols must lie in"):
        sc_decode(spec, chan, received, frozen_from_seed(spec, 0))


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
    spec = spec_from_branches([frozen, good], q=2, m=1, l=1, eps=0.2, z_budget=1e-9,
                              merge_tol=1e-9, rate_vector=(0.5,), sum_rate=0.5,
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
    # Trial t's message, frozen symbols and received block sit at fixed
    # offsets of the run's streams: the same at 5 trials as at 70, and in
    # chunks of 1, 7 or 64 trials, where 70 trials fill one chunk and part
    # of another.  Each is what `random_message`, `frozen_from_seed` and
    # `simulate_channel` give for trial t alone.
    chan = load_channel(str(DEMO_CHANNELS / "five_component.json"))
    spec = build_code(chan, 4, eps=0.2, z_budget=0.05)
    sent, seen = [], []

    def recording(spec, channel):
        decode, chunk = _decoder(spec, channel)

        def record(received, frozen, *args):
            seen.append((received.copy(), frozen.copy()))
            return decode(received, frozen, *args)
        return record, chunk

    def encoding(spec, u):
        sent.append(u.copy())
        return encode(spec, u)

    monkeypatch.setattr(codec, "_decoder", recording)
    monkeypatch.setattr(codec, "encode", encoding)
    runs = {}
    for chunk in (1, 7, DECODE_CHUNK):
        monkeypatch.setattr(codec, "DECODE_CHUNK", chunk)
        for trials in (5, 70):
            sent.clear()
            seen.clear()
            report = run_trials(spec, chan, trials, seed=11)
            assert [len(u) for u in sent] == [min(chunk, trials - k)
                                              for k in range(0, trials, chunk)]
            runs[chunk, trials] = (np.concatenate(sent),
                                   np.concatenate([f for _, f in seen]),
                                   np.concatenate([r for r, _ in seen]), report.errors)
    monkeypatch.undo()
    u, frozen, received, errors = runs[DECODE_CHUNK, 70]
    for (chunk, trials), run in runs.items():
        for got, want in zip(run[:3], (u, frozen, received)):
            assert np.array_equal(got, want[:trials]), (chunk, trials)
    # The chunked harness counts the errors of decoding each trial alone.
    info = ~spec.frozen_mask()
    wrong = []
    for t in range(70):
        assert np.array_equal(u[t], random_message(spec, 11, t))
        assert np.array_equal(frozen[t], frozen_from_seed(spec, 11, t))
        alone = simulate_channel(chan, encode(spec, u[t]), 11, t)
        assert np.array_equal(alone, received[t])
        u_hat = sc_decode(spec, chan.to_explicit(), alone, frozen[t])
        wrong.append(not np.array_equal(u_hat[info], u[t][info]))
    assert errors == sum(wrong) and 0 < sum(wrong)
    assert all(run[3] == sum(wrong[:trials]) for (_, trials), run in runs.items())


@pytest.mark.parametrize("route", ["float", "coset"])
def test_run_trials_hands_the_decoder_each_trials_own_block(monkeypatch, route):
    # On either decoder route, over a full chunk and part of another, the
    # received and frozen arrays the decoder gets for trial t, and the
    # error count, are those of trial t's block built and decoded alone.
    # Twelve good branches, the most reliable ones, on a channel that
    # loses some blocks and not others.
    good = [15, 19, 21, 22, 23, 25, 26, 27, 28, 29, 30, 31]
    spec = random_spec(np.random.default_rng(3264), 3, 2, 5, good)
    if route == "float":        # a noisy identity
        noise = random_mac(np.random.default_rng(3265), 3, 2, 9).table
        chan = DiscreteMac(3, 2, 0.6 * np.eye(9) + 0.4 * noise)
    else:
        chan = random_combo(np.random.default_rng(2), 3, 2).to_explicit()
    assert (_coset_leaves(chan) is None) == (route == "float")
    seen = []

    def recording(spec, channel):
        decode, chunk = _decoder(spec, channel)

        def record(received, frozen, *args):
            seen.append((received.copy(), frozen.copy()))
            return decode(received, frozen, *args)
        return record, chunk

    monkeypatch.setattr(codec, "_decoder", recording)
    trials = DECODE_CHUNK + 6
    report = run_trials(spec, chan, trials, seed=29)
    monkeypatch.undo()
    assert [len(r) for r, _ in seen] == [DECODE_CHUNK, 6]
    received = np.concatenate([r for r, _ in seen])
    frozen = np.concatenate([f for _, f in seen])
    info = ~spec.frozen_mask()
    errors = 0
    for t in range(trials):
        u = random_message(spec, 29, t)
        alone = simulate_channel(chan, encode(spec, u), 29, t)
        assert np.array_equal(received[t], alone)
        assert np.array_equal(frozen[t], frozen_from_seed(spec, 29, t))
        u_hat = sc_decode(spec, chan, alone, frozen[t])
        errors += not np.array_equal(u_hat[info], u[info])
    assert report.errors == errors and 0 < errors < trials


def test_run_trials_chunk_follows_the_decoder(monkeypatch):
    # The coset decoder holds O(T N m) integers and no minus-node gather,
    # so a GF(3)^3 combination at N=512 decodes 50 trials in one batch,
    # where a generic channel's chunk is 44.  Each run_trials call resolves
    # the route once.
    rng = np.random.default_rng(512)
    spec = random_spec(rng, 3, 3, 9)
    combo = random_combo(rng, 3, 3).to_explicit()
    generic = random_mac(rng, 3, 3, 4)
    resolve = codec._coset_leaves
    routes, seen = [], []

    def counting(channel):
        routes.append(channel)
        return resolve(channel)

    def recording(spec, channel):
        decode, chunk = _decoder(spec, channel)

        def record(received, frozen):
            seen.append(len(received))
            if channel is generic:      # spare the float decoder's 44-trial gathers
                return np.zeros(frozen.shape, dtype=np.int64), None, None
            return decode(received, frozen)
        return record, chunk

    assert _decoder(spec, generic)[1] == 44 and resolve(combo) is not None
    monkeypatch.setattr(codec, "_coset_leaves", counting)
    monkeypatch.setattr(codec, "_decoder", recording)
    run_trials(spec, combo, 50, seed=2)
    assert seen == [50] and routes == [combo]
    seen.clear()
    run_trials(spec, generic, 50, seed=2)
    assert seen == [44, 6] and routes == [combo, generic]


def test_decode_chunk_bounds_the_minus_gather(monkeypatch):
    # A minus node's gather and its product temporary take chunk * N * q^2m
    # floats together: 1.5 GB at 64 trials for q^m = 27 and N = 4096.
    rng = np.random.default_rng(4096)
    _, chunk = _decoder(trivial_spec(3, 3, 12), random_mac(rng, 3, 3, 4))
    assert chunk == 5
    assert chunk * 4096 * 27 ** 2 <= GATHER_FLOATS < (chunk + 1) * 4096 * 27 ** 2
    # The codes of the `decode` benchmark workload (q^m = 4, N <= 1024)
    # keep a full chunk.
    generic = random_mac(rng, 2, 2, 3)
    for l in (4, 8, 10):
        assert _decoder(trivial_spec(2, 2, l), generic)[1] == DECODE_CHUNK == 64
    monkeypatch.setattr(codec, "GATHER_FLOATS", 1)
    for chan in (generic, identity_mac(2, 2)):
        assert _decoder(trivial_spec(2, 2, 4), chan)[1] == 1    # at least one trial


# -- the coset decoder against the float decoder ----------------------------------

COSET_SHAPES = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (5, 2), (3, 3)]


def assert_same_decoding(got, want):
    """Two (u_hat, posteriors, fallbacks) results agree exactly."""
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[2], want[2])
    assert len(got[1]) == len(want[1])
    for g, w in zip(got[1], want[1]):
        assert (g is None and w is None) or np.array_equal(g, w)


def decode_both(spec, chan, received, frozen, genie=None):
    """Both decoders on the same blocks: they must agree exactly, in
    decisions, posteriors and fallbacks.  Returns the fallback total."""
    want = _decode_float(spec, chan, received, frozen, genie, with_details=True)
    got = _decode_coset(spec, _coset_leaves(chan)[received], frozen, genie,
                        with_details=True)
    assert_same_decoding(got, want)
    return int(want[2].sum())


@pytest.mark.parametrize("q,m", COSET_SHAPES)
def test_coset_decoder_matches_float_decoder(q, m):
    rng = np.random.default_rng(300 + 10 * q + m)
    depth = {1: 5, 2: 3, 3: 2}[m]
    every = subspace_lattice(q, m).subspaces
    combos = [random_combo(rng, q, m, max_terms=2 if m == 1 else 3),
              LinearComboMac(q, m, zip(rng.dirichlet(np.ones(len(every))).tolist(), every))]
    subtrees = subtree_specs(np.random.default_rng(400 + 10 * q + m), q, m, depth)
    fallbacks = 0
    for rep, combo in enumerate(combos):
        chan = combo.to_explicit()
        for spec in [random_spec(rng, q, m, depth),
                     build_code(combo, depth, eps=0.2, z_budget=0.5)] + subtrees:
            for trials in (1, 3, DECODE_CHUNK + 1):
                received, frozen, genie = sampled_blocks(spec, chan, trials, rep)
                fallbacks += decode_both(spec, chan, received, frozen)
                fallbacks += decode_both(spec, chan, received, frozen, genie)
            # Received words the code cannot produce: empty meets.
            received = rng.integers(0, chan.output_size, size=(20, spec.block_length))
            frozen = np.stack([frozen_from_seed(spec, rep, t) for t in range(20)])
            fallbacks += decode_both(spec, chan, received, frozen)
    assert fallbacks > 0


def test_fallback_posterior_is_the_float_decoders():
    # N=2 on the noiseless GF(3)^3 channel, decoded against the wrong frozen
    # vector: the '+' root meets an empty set.  The float decoder's posterior
    # is then the uniform row 1/27 over its own sum, which differs in the
    # last bit from the normalized full-space indicator.
    q, m = 3, 3
    ident = tuple(tuple(int(i == j) for i in range(m)) for j in range(m))
    frozen_branch = BranchCode(sig="-", in_good_set=False, r=0, a_columns=(),
                               s_users=(), frozen=(1,) * m, z_sum=1.0,
                               i_branch=0.0, i_detected=0.0)
    spec = spec_from_branches([frozen_branch, good_branch(ident, (1, 2, 3), m, "+")],
                              q=q, m=m, l=1, eps=0.2, z_budget=1e-9, merge_tol=1e-9,
                              rate_vector=(0.5,) * m, sum_rate=1.5, union_bound=0.0)
    spec.check()
    chan = identity_mac(q, m)
    u = frozen_from_seed(spec, 1)
    u[1] = [2, 0, 1]
    received = encode(spec, u) @ q ** np.arange(m)
    wrong = np.where(spec.frozen_mask(), (u + 1) % q, 0)
    res = sc_decode(spec, chan, received, wrong, with_details=True)
    assert res.fallbacks == 1
    uniform = np.full(q ** m, 1.0 / q ** m)
    assert np.array_equal(res.posteriors[1], uniform / uniform.sum())
    assert not np.array_equal(uniform / uniform.sum(), np.full(q ** m, 1.0) / q ** m)
    assert decode_both(spec, chan, received[None], wrong[None]) == 1


def test_fallbacks_are_counted_only_with_details():
    # `run_trials` reads only u_hat, so neither route counts fallbacks for
    # it; the decisions are the same either way.
    rng = np.random.default_rng(28)
    combo = random_combo(rng, 2, 2).to_explicit()
    generic = random_mac(rng, 2, 2, 3)
    assert _coset_leaves(combo) is not None and _coset_leaves(generic) is None
    for chan in (combo, generic):
        spec = random_spec(rng, 2, 2, 4)
        # Random received words: the combination's plus nodes meet empty sets.
        received = rng.integers(0, chan.output_size, size=(5, spec.block_length))
        frozen = np.stack([frozen_from_seed(spec, 28, t) for t in range(5)])
        u_hat, posteriors, fallbacks = decode_batch(spec, chan, received, frozen)
        assert posteriors is None and fallbacks is None
        detailed = decode_batch(spec, chan, received, frozen, with_details=True)
        assert np.array_equal(u_hat, detailed[0])
        assert detailed[2].shape == (5,)
        assert (detailed[2].sum() > 0) == (chan is combo)


@pytest.mark.parametrize("q,m", COSET_SHAPES + [(2, 4), (7, 2)])
def test_minus_node_over_a_fallback_row_is_flat(q, m):
    # Why the coset decoder is exact after a fallback: the float decoder's
    # minus node over a uniform 1/q^m row sums the same count of equal
    # terms at every input, in positions that vary, and every such sum
    # rounds alike, so the normalized row is exactly 1.0 everywhere.
    tab = _coset_tables(q, m)
    big_q = q ** m
    sets = ((tab.keys[:, None] >> np.arange(big_q)) & 1).astype(float)
    uniform = np.full((len(sets), big_q), 1.0 / big_q)
    v = (np.take(sets[None], add_table(q, m), axis=2) * uniform[None, :, None, :]).sum(axis=3)
    assert (v == v.max(axis=2, keepdims=True)).all()


def test_decoder_routing():
    rng = np.random.default_rng(88)
    uneven = DiscreteMac(2, 1, [[0.5, 0.5], [0.25, 0.75]])
    # Columns 0 and 2 are constant on three points of GF(2)^2: not affine.
    three_points = DiscreteMac(2, 2, [[0.5, 0.0, 0.5], [0.5, 0.0, 0.5],
                                      [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    generic = [random_mac(rng, 2, 2, 3), random_mac(rng, 3, 1, 4), uneven,
               load_channel(str(DEMO_CHANNELS / "random_ternary.json")), three_points]
    combos = [identity_mac(2, 2), identity_mac(3, 1), identity_mac(2, 4),
              load_channel(str(DEMO_CHANNELS / "five_component.json")).to_explicit(),
              random_combo(rng, 3, 2).to_explicit()]
    for chan, coset in [(c, False) for c in generic] + [(c, True) for c in combos]:
        leaves = _coset_leaves(chan)
        assert (leaves is not None) == coset
        spec = random_spec(rng, chan.q, chan.m, 2)
        received, frozen, genie = sampled_blocks(spec, chan, 3, 1)
        got = decode_batch(spec, chan, received, frozen, genie, with_details=True)
        if coset:
            want = _decode_coset(spec, leaves[received], frozen, genie, with_details=True)
        else:
            want = _decode_float(spec, chan, received, frozen, genie, with_details=True)
        assert_same_decoding(got, want)
    # The check is one pass over a wide table: 40 000 singleton columns.
    wide = DiscreteMac(2, 2, np.tile(np.eye(4), 10 ** 4) / 10 ** 4)
    assert np.array_equal(_coset_leaves(wide),
                          np.tile(_coset_leaves(identity_mac(2, 2)), 10 ** 4))


@pytest.mark.parametrize("q,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)])
def test_coset_tables_match_set_oracle(q, m):
    tab = _coset_tables(q, m)
    vecs = [tuple(v) for v in all_vectors(q, m).tolist()]
    sets = [frozenset(v for x, v in enumerate(vecs) if key >> x & 1)
            for key in tab.keys.tolist()]
    assert frozenset(sets) == affine_sets(q, m)
    assert len(sets) == tab.dead == _coset_count(q, m)
    # The dead index acts as the full space.
    as_operand = sets + [frozenset(vecs)]
    index = {s: i for i, s in enumerate(sets)}
    for i, a in enumerate(as_operand):
        assert [as_operand[k] for k in tab.trans[i]] == [set_translate(a, s, q) for s in vecs]
        for j, b in enumerate(as_operand):
            assert tab.minus[i, j] == index[set_difference(a, b, q)]
            assert tab.meet[i, j] == index.get(a & b, tab.dead)
    for arr in (tab.keys, tab.minus, tab.trans, tab.meet, tab.post):
        assert not arr.flags.writeable
    ident = tuple(tuple(int(i == j) for i in range(m)) for j in range(m))
    assert not _decision_table(q, m, ident, tuple(range(1, m + 1))).flags.writeable


def test_coset_tables_size_cap(monkeypatch):
    # GF(3)^3 and GF(2)^4 fit; GF(2)^5 (2451 sets) and GF(11)^2 (more than
    # 63 inputs) stay on the float decoder without building a table.
    assert [_coset_count(3, 3), _coset_count(2, 4)] == [184, 307]
    assert _coset_fits(3, 3) and _coset_fits(2, 4)
    assert not _coset_fits(2, 5) and not _coset_fits(11, 2)
    before = _coset_tables.cache_info().currsize
    assert _coset_leaves(identity_mac(2, 5)) is None
    assert _coset_tables.cache_info().currsize == before
    # Under a smaller cap, GF(2)^2 decodes on the float decoder.
    chan = identity_mac(2, 2)
    spec = trivial_spec(2, 2, 3)
    received, frozen, _ = sampled_blocks(spec, chan, 2, 4)
    monkeypatch.setattr(codec, "COSET_CELLS", 100)
    assert _coset_leaves(chan) is None
    assert_same_decoding(decode_batch(spec, chan, received, frozen, with_details=True),
                         _decode_float(spec, chan, received, frozen, with_details=True))
