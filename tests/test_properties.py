"""Property tests of the MI triple (I(U;Yr), I(U;Ye), I(U;S)) on one policy,
of the closed-form partials of the auxiliary-policy search score, of the
concavity in p(x|s) that lets each input-policy maximum be solved from one
start, of the partials of the input-policy kernel, of the simulator's
batched strong-typicality kernel and of the no-discussion run's state and
key tables built from it and from the decoder, of its receiver-only
channel draw, of the exact 128-bit limb product behind its PCG64 stream
words, and of its exact leakage in both modes.

Hypothesis draws small alphabets and a numpy seed for the channel and the
policy; ``derandomize=True`` makes every run draw the same examples.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import statekey.sim as sim
from statekey import (AuxiliaryEncoderPolicy, BinningCodebook, BoundResult,
                      InputPolicy, SimConfig, StateChannel, decode,
                      exact_leakage, lower_bound_discussion, run_no_discussion)
from statekey.channel import (aux_mi_partials, aux_mi_terms, mi_bits,
                              policy_mi_triple)
from statekey.dmc import _cell_entropy, _input_value_grad, _search_score
from statekey.sim import (_indicators, _limb_product, _limb_table,
                          _no_disc_tables, _one_round_tables, _sequences,
                          _Typicality, one_round_exact_leakage)
from conftest import (S, U, YE, YR, cmi_ref, joint_uxsre, random_aux_policy,
                      random_channel)

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)

SIZES = st.tuples(*[st.integers(1, 3)] * 5)      # |U|, |X|, |S|, |Yr|, |Ye|


def draw_case(sizes, seed, deterministic):
    """A random channel and policy; ``deterministic`` puts every policy row
    on one symbol, so the joint law has zero cells."""
    u_size, x_size, s_size, yr_size, ye_size = sizes
    rng = np.random.default_rng(seed)
    channel = random_channel(rng, x_size, s_size, yr_size, ye_size)
    policy = random_aux_policy(rng, channel, u_size)
    if deterministic:
        policy = AuxiliaryEncoderPolicy(
            u_size, np.eye(u_size)[policy.u_given_s.argmax(axis=1)],
            np.eye(x_size)[policy.x_given_us.argmax(axis=2)])
    return channel, policy


def case_args(fn):
    return PROPERTY(given(SIZES, st.integers(0, 2**32 - 1), st.booleans())(fn))


def relabel(channel, policy, axis, perm):
    """The same model with the symbols of one variable permuted."""
    kernel, state = channel.kernel, channel.state_pmf
    ugs, xus = policy.u_given_s, policy.x_given_us
    if axis == "U":
        ugs, xus = ugs[:, perm], xus[perm]
    elif axis == "X":
        kernel, xus = kernel[perm], xus[:, :, perm]
    elif axis == "S":
        state, kernel = state[perm], kernel[:, perm]
        ugs, xus = ugs[perm], xus[:, perm]
    elif axis == "Yr":
        kernel = kernel[:, :, perm]
    else:
        kernel = kernel[:, :, :, perm]
    return (StateChannel.from_arrays(state, kernel),
            AuxiliaryEncoderPolicy(policy.u_size, ugs, xus))


@case_args
def test_triple_matches_the_entropy_identity(sizes, seed, deterministic):
    channel, policy = draw_case(sizes, seed, deterministic)
    p = joint_uxsre(channel, policy)
    for value, other in zip(policy_mi_triple(channel, policy), (YR, YE, S)):
        assert value == pytest.approx(cmi_ref(p, [U], [other]), abs=1e-12)


@case_args
def test_triple_is_invariant_under_relabelling(sizes, seed, deterministic):
    channel, policy = draw_case(sizes, seed, deterministic)
    before = policy_mi_triple(channel, policy)
    rng = np.random.default_rng(seed + 1)
    sizes = dict(U=policy.u_size, X=channel.x_size, S=channel.s_size,
                 Yr=channel.yr_size, Ye=channel.ye_size)
    for axis, size in sizes.items():
        after = policy_mi_triple(*relabel(channel, policy, axis,
                                          rng.permutation(size)))
        assert after == pytest.approx(before, abs=1e-12)


@case_args
def test_triple_ignores_unused_and_unreachable_symbols(sizes, seed, deterministic):
    channel, policy = draw_case(sizes, seed, deterministic)
    before = policy_mi_triple(channel, policy)
    # A u symbol that no state selects, whatever input it would send.
    ugs = np.pad(policy.u_given_s, ((0, 0), (0, 1)))
    xus = np.concatenate([policy.x_given_us, policy.x_given_us[:1]])
    wider_u = AuxiliaryEncoderPolicy(policy.u_size + 1, ugs, xus)
    assert policy_mi_triple(channel, wider_u) == pytest.approx(before, abs=1e-12)
    # An output symbol of either receiver that no (x, s) can produce.
    for pad in (((0, 0), (0, 0), (0, 1), (0, 0)), ((0, 0), (0, 0), (0, 0), (0, 1))):
        wider = StateChannel.from_arrays(channel.state_pmf,
                                         np.pad(channel.kernel, pad))
        assert policy_mi_triple(wider, policy) == pytest.approx(before, abs=1e-12)


# With |U| = 1 every information value is 0, on the kinks of the score.
GRADIENT_SIZES = st.tuples(st.integers(2, 3), *[st.integers(1, 3)] * 4)


@PROPERTY
@given(GRADIENT_SIZES, st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_score_gradient_matches_central_differences(sizes, seed, restricted,
                                                    key_rate):
    """The closed-form partials of the search score, projected onto each
    policy row's tangent space, match central differences along the
    directions e_j - 1/d, which keep the row on the simplex.  Key-rate
    examples with a negative covering slack (most of the general-pass ones)
    have the penalty on, the others off."""
    u_size, x_size, s_size, yr_size, ye_size = sizes
    rng = np.random.default_rng(seed)
    channel = random_channel(rng, x_size, s_size, yr_size, ye_size)
    policy = random_aux_policy(rng, channel, u_size)
    # Rows kept off the boundary, where the partials of I blow up.
    u_rows = 0.9 * policy.u_given_s[:1 if restricted else s_size] + 0.1 / u_size
    x_rows = 0.9 * policy.x_given_us + 0.1 / x_size
    kernel = channel.stacked_kernel()

    def scores(u_batch, x_batch):
        triple, terms = aux_mi_terms(channel.state_pmf, kernel, yr_size,
                                     u_batch, x_batch)
        return triple, terms, _search_score(triple, key_rate)

    (i_uyr, i_uye, i_us), terms, (_, _, _, weights) = scores(u_rows[None],
                                                             x_rows[None])
    # The score has kinks where the slack or I(U;Ye) - I(U;S) changes sign.
    if key_rate:
        assume(abs(i_uyr[0] - i_us[0]) > 1e-4)
    else:
        assume(abs(i_uye[0] - i_us[0]) > 1e-4)
    grad_u, grad_x = aux_mi_partials(channel.state_pmf, kernel, x_rows[None],
                                     weights, terms, np.array([restricted]))
    # A tied row gets the same partial in every state's row: keep one.
    grads = grad_u[:, :len(u_rows)], grad_x
    h = 1e-6
    for kind, (rows, grad) in enumerate(zip((u_rows, x_rows), grads)):
        width = rows.shape[-1]
        tangent = np.eye(width) - 1.0 / width
        points = []
        for index in np.ndindex(rows.shape[:-1]):
            for sign in (1.0, -1.0):
                bumped = np.repeat(rows[None], width, axis=0)
                bumped[(slice(None),) + index] += sign * h * tangent
                points.append(bumped)
        bumped = np.concatenate(points)
        batch = [np.repeat(u_rows[None], len(bumped), axis=0),
                 np.repeat(x_rows[None], len(bumped), axis=0)]
        batch[kind] = bumped
        score = scores(*batch)[2][2].reshape(-1, 2, width)
        numeric = (score[:, 0] - score[:, 1]) / (2 * h)
        exact = grad[0].reshape(-1, width) @ tangent
        np.testing.assert_allclose(exact, numeric, rtol=0, atol=1e-6)


INPUT_SIZES = st.tuples(*[st.integers(1, 3)] * 4)      # |X|, |S|, |Yr|, |Ye|


def input_objectives(channel):
    """The value of I(X,S;Yr|Ye) and of I(X,S;Yr) - I(Yr;Ye) at p(x|s)."""
    def objective(given_ye):
        h_cell = _cell_entropy(channel.kernel, given_ye)
        return lambda p: _input_value_grad(p, channel.state_pmf,
                                           channel.kernel, h_cell)[0]
    return objective(True), objective(False)


@PROPERTY
@given(INPUT_SIZES, st.integers(0, 2**32 - 1), st.booleans())
def test_input_objectives_are_midpoint_concave(sizes, seed, deterministic):
    """Both objectives are a concave function of a law linear in p(s) p(x|s)
    minus a linear one; ``deterministic`` puts the second policy on a vertex."""
    rng = np.random.default_rng(seed)
    channel = random_channel(rng, *sizes)
    first, second = rng.dirichlet(np.ones(channel.x_size),
                                  size=(2, channel.s_size))
    if deterministic:
        second = np.eye(channel.x_size)[second.argmax(axis=1)]
    for value in input_objectives(channel):
        assert value((first + second) / 2) \
            >= (value(first) + value(second)) / 2 - 1e-12


@PROPERTY
@given(INPUT_SIZES, st.integers(0, 2**32 - 1))
def test_discussion_branch_one_beats_every_vertex(sizes, seed):
    """The single ascent from the uniform policy reaches at least the value
    of every deterministic policy.  Not on every channel: where the maximum
    sits on a vertex with a small gradient margin, the ascent's stall stop
    can end up to 7.8e-11 short of it (16 of 3,000 random channels of these
    sizes); none of the derandomized examples here is such a channel."""
    channel = random_channel(np.random.default_rng(seed), *sizes)
    result = lower_bound_discussion(channel, BoundResult(0.0, None))
    branch1 = result.value_bits if result.diagnostics["discussion_branch"] \
        else result.diagnostics["discussion_value"]
    value = input_objectives(channel)[1]
    for xs in itertools.product(range(channel.x_size), repeat=channel.s_size):
        assert branch1 >= value(np.eye(channel.x_size)[list(xs)]) - 1e-12


@PROPERTY
@given(INPUT_SIZES, st.integers(0, 2**32 - 1), st.booleans())
def test_input_kernel_value_and_partials(sizes, seed, given_ye):
    """``_input_value_grad`` is I(X,S;Yr|Ye) (``given_ye``) or
    I(X,S;Yr) - I(Yr;Ye) by the MI kernel, and its d matches central
    differences in each w(x,s) = p(s) p(x|s).  The value is a function of w
    alone, so with p(s) = 1 the rows of p_xs are w, moved one entry at a
    time."""
    rng = np.random.default_rng(seed)
    channel = random_channel(rng, *sizes)
    q = channel.kernel
    h_cell = _cell_entropy(q, given_ye)
    # w kept off the boundary, where the partials blow up.
    w = 0.1 + rng.random((channel.s_size, channel.x_size))
    value, _ = _input_value_grad(w / w.sum(axis=1, keepdims=True),
                                 w.sum(axis=1) / w.sum(), q, h_cell)
    joint = (w.T / w.sum())[:, :, None, None] * q
    cells = channel.x_size * channel.s_size
    if given_ye:
        expected = mi_bits(joint.reshape(cells, -1)) \
            - mi_bits(joint.sum(axis=2).reshape(cells, -1))
    else:
        expected = mi_bits(joint.sum(axis=3).reshape(cells, -1)) \
            - mi_bits(joint.sum(axis=(0, 1)))
    assert value == pytest.approx(expected, abs=1e-12)
    ones = np.ones(channel.s_size)
    _, d = _input_value_grad(w, ones, q, h_cell)
    h = 1e-6
    for index in np.ndindex(w.shape):
        step = np.zeros_like(w)
        step[index] = h
        numeric = (_input_value_grad(w + step, ones, q, h_cell)[0]
                   - _input_value_grad(w - step, ones, q, h_cell)[0]) / (2 * h)
        assert d[index] == pytest.approx(numeric, abs=1e-6), index


def typical_by_definition(rows, fixed, pmf, eps):
    """Strong typicality of every (fixed[t], rows[i]) pair, one pair at a
    time: each cell's count c must satisfy |c / n - pmf| <= eps (+1e-12),
    and a cell of zero probability must be empty."""
    n = rows.shape[1]
    out = np.zeros((len(fixed), len(rows)), dtype=bool)
    for t, b_seq in enumerate(fixed):
        for i, a_seq in enumerate(rows):
            counts = np.zeros(pmf.shape)
            np.add.at(counts, (a_seq, b_seq), 1)
            out[t, i] = bool((np.abs(counts / n - pmf) <= eps + 1e-12).all()
                             and not counts[pmf <= 0].any())
    return out


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 12),
       st.integers(0, 2**32 - 1), st.sampled_from(["boundary", "none", "any"]))
def test_typical_pairs_match_the_count_definition(a_size, b_size, n, seed,
                                                  eps_kind):
    """``_Typicality.pairs`` against the per-pair definition, on pmfs with zero
    cells.  ``boundary`` puts eps on |c / n - p| of one cell, up to
    rounding, where a count one off the admitted interval decides; ``none``
    leaves a positive cell no admitted count unless p is on the 1/n grid.
    A third of the pmfs give column 0 one positive cell and column 1 none;
    their fixed rows then hold symbol 0 every count from 0 to n times, each
    beside a row that puts that cell's symbol there and positive cells
    elsewhere, so that cell's count band alone decides the pair."""
    rng = np.random.default_rng(seed)
    pmf = rng.dirichlet(np.ones(a_size * b_size))
    pmf[rng.random(pmf.size) < 0.3] = 0.0
    if not pmf.any():
        pmf[rng.integers(pmf.size)] = 1.0
    if rng.random() < 0.5:      # a pmf on the count grid, whose bands touch
        pmf = rng.multinomial(n, pmf / pmf.sum()) / n
    pmf = (pmf / pmf.sum()).reshape(a_size, b_size)
    one_cell = rng.random() < 1 / 3
    if one_cell:
        pmf[:, :2] = 0.0
        pmf[rng.integers(a_size), 0] = rng.uniform(0.05, 1.0)
        pmf /= pmf.sum()
    # The first pair is drawn from pmf itself, so some pairs are typical.
    pair = rng.choice(pmf.size, size=n, p=pmf.ravel())
    rows = np.vstack([pair // b_size,
                      rng.integers(0, a_size, size=(int(rng.integers(0, 6)), n))])
    fixed = np.vstack([pair % b_size,
                       rng.integers(0, b_size, size=(int(rng.integers(0, 6)), n))])
    if one_cell:
        others = np.flatnonzero(pmf[:, 1:].any(axis=0)) + 1
        for count in range(n + 1) if others.size else [n]:
            b_seq = np.concatenate([np.zeros(count, dtype=int),
                                    rng.choice(others, size=n - count)])
            b_seq = rng.permutation(b_seq)
            a_seq = [rng.choice(np.flatnonzero(pmf[:, b] > 0)) for b in b_seq]
            rows, fixed = np.vstack([rows, a_seq]), np.vstack([fixed, b_seq])
    if eps_kind == "boundary":    # rounded unlike |c / n - p|: the slack decides
        eps = abs(rng.integers(0, n + 1) - n * rng.choice(pmf.ravel())) / n
    elif eps_kind == "none":
        eps = 1e-13
    else:
        eps = rng.uniform(0.0, 0.6)
    typical = _Typicality(pmf, n, eps).pairs(_indicators(rows, a_size), fixed)
    assert np.array_equal(typical, typical_by_definition(rows, fixed, pmf, eps))


@PROPERTY
@given(SIZES, st.integers(2, 5), st.integers(0, 2**32 - 1), st.booleans())
def test_run_tables_equal_the_kernels_on_each_sequence(sizes, n, seed,
                                                       deterministic):
    """The state and key tables a no-discussion run reads, row by row: each
    row of ``state_typical`` is ``pairs`` of the codewords against that s^n
    alone, and each entry of the key table is ``decode`` of that yr^n alone.
    The run's codebook holds one codeword twice, in two bins, so some yr^n
    tie; deterministic policies give p(u, yr) zero cells.  With as many
    trials as receiver sequences the run builds its key table; an
    alphabet of size 1 for S or Ye makes the view constant, and then the
    run has no state table."""
    channel, policy = draw_case(sizes, seed, deterministic)
    rng = np.random.default_rng(seed + 2)
    count = int(rng.integers(2, 7))
    seqs = rng.integers(0, policy.u_size, size=(count, n))
    seqs[1] = seqs[0]
    cb = BinningCodebook(sequences=seqs, bin_of=np.arange(count) % 2,
                         num_bins=2)
    cfg = SimConfig(n=n, epsilon=rng.uniform(0.1, 0.6), rate_margin=0.1,
                    trials=channel.yr_size ** n, seed=seed)
    seen, chunk = [], sim._no_disc_chunk
    with mock.patch.object(sim, "build_codebook", lambda *args: cb), \
            mock.patch.object(sim, "_no_disc_chunk",
                              lambda *args: seen.append(args[2:4])
                              or chunk(*args)):
        run_no_discussion(channel, policy, cfg)
    tables, key_of_yr = seen[0]
    view = np.count_nonzero(channel.eavesdropper_kernel().any(axis=(0, 1)))
    states = channel.s_size ** n
    if view == 1:
        assert tables.state_typical is None
    else:
        assert tables.state_typical.shape == (states, count)
        for i in range(states):
            assert np.array_equal(tables.state_typical[i], tables.typical.pairs(
                tables.codewords, _sequences(channel.s_size, n, i, i + 1))[0])
    assert key_of_yr.shape == (cfg.trials,)
    for i in range(cfg.trials):
        assert key_of_yr[i] == decode(cb, tables, _sequences(
            channel.yr_size, n, i, i + 1))[0]


LAST_UNIFORM = 1.0 - 2.0 ** -53     # the largest uniform a stream draws


@PROPERTY
@given(st.tuples(*[st.integers(1, 3)] * 2), st.integers(1, 4),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_receiver_draw_is_the_joint_draw_over_ye(xs_sizes, yr_size, ye_size,
                                                 seed):
    """``_draw`` on the receiver's ``_kernel_columns`` gives the joint
    (yr, ye) draw's pair // |Ye| from the same uniforms, bit for bit.  The
    kernel has zero cells, some of its rows sum to 1 - 5e-13, and the
    uniforms include 0, ``LAST_UNIFORM`` and every joint threshold, each
    exactly and one step either side."""
    x_size, s_size = xs_sizes
    cells = x_size * s_size
    rng = np.random.default_rng(seed)
    kernel = rng.dirichlet(np.ones(yr_size * ye_size), size=cells)
    kernel *= rng.random(kernel.shape) < 0.6
    kernel[~kernel.any(axis=1), 0] = 1.0
    kernel /= kernel.sum(axis=1, keepdims=True)
    for c in np.flatnonzero(rng.random(cells) < 0.5):
        kernel[c, np.flatnonzero(kernel[c] > 1e-12)[-1]] -= 5e-13
    channel = StateChannel.from_arrays(
        np.full(s_size, 1 / s_size),
        kernel.reshape(x_size, s_size, yr_size, ye_size))
    joint = sim._cdf_columns(channel.kernel.reshape(cells, -1))
    # Each threshold with its own cell, then 0, LAST_UNIFORM and 50 random
    # uniforms at random cells.
    at = np.tile(np.arange(cells), len(joint))
    extra = np.concatenate([[0.0, LAST_UNIFORM], rng.random(50)])
    uniforms = np.concatenate([np.nextafter(joint.ravel(), -1.0), joint.ravel(),
                               np.nextafter(joint.ravel(), 2.0), extra])
    at = np.concatenate([at, at, at, rng.integers(0, cells, size=len(extra))])
    inside = (uniforms >= 0.0) & (uniforms <= LAST_UNIFORM)
    uniforms, at = uniforms[inside], at[inside]
    receiver = sim._draw(sim._kernel_columns(channel), at, uniforms)
    assert np.array_equal(receiver, sim._draw(joint, at, uniforms) // ye_size)
    assert receiver.max(initial=0) < yr_size


WORD = st.integers(0, 2 ** 128 - 1)
ALL_ONES = 2 ** 128 - 1


@PROPERTY
@given(st.lists(st.tuples(WORD, WORD), min_size=1, max_size=6),
       st.lists(st.tuples(WORD, WORD), min_size=1, max_size=6))
def test_limb_product_is_exact(states, jumps):
    """``_limb_product``'s (hi, lo) against (P * init + Q * inc) mod 2^128 in
    Python ints.  An all-ones (init, inc) row and (P, Q) column join every
    example: theirs is the largest block sum, (2^20 + 14) (2^16 - 1)^2, just
    below 2^52."""
    states = [*states, (ALL_ONES, ALL_ONES)]
    jumps = [*jumps, (ALL_ONES, ALL_ONES)]
    words = np.array([[v >> shift & 2 ** 64 - 1 for v in row
                       for shift in (0, 64)] for row in states], dtype="<u8")
    table = _limb_table(jumps)
    largest = (words.view("<u2").astype(float) @ table).max()
    assert largest == (2 ** 20 + 14) * (2 ** 16 - 1) ** 2
    hi, lo = _limb_product(words, table)
    for r, (init, inc) in enumerate(states):
        for j, (p, q) in enumerate(jumps):
            exact = (p * init + q * inc) % 2 ** 128
            assert int(hi[r, j]) << 64 | int(lo[r, j]) == exact, (r, j)


# |U|, |X|, |S|, |Yr|, |Ye| of the leakage properties: no alphabet of size 1,
# which would make most leakages 0.
LEAKAGE_SIZES = st.tuples(*[st.integers(2, 3)] * 5)


@PROPERTY
@given(LEAKAGE_SIZES, st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_no_discussion_leakage_ignores_ye_labels(sizes, n, seed):
    """Permuting the eavesdropper's symbols permutes the columns of the
    (key, ye^n) table, so ``exact_leakage`` of one codebook of 3-6 codewords
    in two bins is unchanged; epsilon is drawn so that some state sequences
    fall back to the whole codebook."""
    channel, policy = draw_case(sizes, seed, False)
    rng = np.random.default_rng(seed + 1)
    count = int(rng.integers(3, 7))
    cb = BinningCodebook(sequences=rng.integers(0, policy.u_size, (count, n)),
                         bin_of=rng.permutation(np.arange(count) % 2),
                         num_bins=2)
    epsilon = rng.uniform(0.25, 0.6)
    values = [exact_leakage(cb, *case, _no_disc_tables(*case, cb, epsilon))
              for case in (
                  (channel, policy),
                  relabel(channel, policy, "Ye", rng.permutation(sizes[4])))]
    assert values[1] == pytest.approx(values[0], abs=1e-12)


@PROPERTY
@given(LEAKAGE_SIZES, st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_one_round_leakage_ignores_ye_labels(sizes, n, seed):
    """The same for ``one_round_exact_leakage``, on channels with peaked
    (Dirichlet 0.3) kernels, where about half the runs have more than one
    key sub-bin.  The sub-bin count reads I(Yr;Ye), whose last bits the
    relabelling may change, so only runs that keep it are compared."""
    _, x_size, s_size, yr_size, ye_size = sizes
    rng = np.random.default_rng(seed)
    kernel = rng.dirichlet(np.full(yr_size * ye_size, 0.3), size=(
        x_size, s_size)).reshape(x_size, s_size, yr_size, ye_size)
    state = rng.dirichlet(np.ones(s_size))
    policy = InputPolicy(rng.dirichlet(np.ones(x_size), size=s_size))
    cfg = SimConfig(n=n, epsilon=0.3, rate_margin=0.01, trials=1, seed=seed)
    tables = [_one_round_tables(StateChannel.from_arrays(state, k), policy, cfg)
              for k in (kernel, kernel[..., rng.permutation(ye_size)])]
    assume(tables[0].num_subbins == tables[1].num_subbins)
    assert one_round_exact_leakage(tables[1]) == pytest.approx(
        one_round_exact_leakage(tables[0]), abs=1e-12)
