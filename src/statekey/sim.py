"""Desk-scale simulation of the random-binning key-agreement schemes.

Two modes are implemented at tiny block lengths:

* ``no_discussion``: a codebook of u-sequences is drawn i.i.d. and randomly
  partitioned into key bins; the encoder picks a codeword jointly typical
  with the state sequence and declares that codeword's bin index as the key;
  the receiver declares the bin whose codewords have the largest summed
  likelihood of its channel output.
* ``one_round_discussion``: the sender transmits x ~ p(x|s); the receiver
  publishes the bin index of its output sequence, the sender reconstructs
  that sequence from (x, s, bin) by unique joint typicality, and both declare
  the sub-bin index as the key.  Leakage accounting includes the public bin
  index in the eavesdropper's view.

Typicality is the strong (empirical-count) kind: every cell of the joint
empirical distribution must lie within ``epsilon`` of the model pmf, and
cells with zero model probability must be unoccupied.  ``_typical_pairs``
tests it in batches for the encoder, the exact leakage, and the one-round
bins and reconstruction, where ambiguity is an error.  The no-discussion
decoder is bin-wise maximum likelihood under the single-letter law
p(yr | u): it reads no ``epsilon``, and a tie between bins counts as an
error.  When the encoder finds no typical codeword it falls back to a
uniformly random codeword (counted in ``encode_failure_rate``); the
exact-leakage enumeration applies the same fallback law.  Exact leakage
applies each codeword's Kronecker product one mode at a time, never forming
it: about count · n · max(|S|, |Ye|)^n multiply-adds, in chunks of codewords.
Leakage is always exact, in both modes.  A run whose leakage would take more
than ``MAX_LEAKAGE_MULADDS`` multiply-adds, or hold more than
``MAX_LEAKAGE_BYTES`` of weights and key × view table, raises
``BudgetError`` before its first trial.

Every operation is a pure function of (inputs, seed): replays are
bit-identical, and trial t owns the random stream ``_rng_stream(seed, 1, t)``.
A trial's stream only draws; it makes the same draws, in the same order,
whatever the chunking:

* no-discussion: ``random(n)`` for s^n, then ``integers(k)`` for the pick
  among the k typical codewords (``integers(count)`` on the fallback), then
  ``random(n)`` for x^n and ``random(n)`` for the channel;
* one-round: ``random(3n)``, read as the uniforms of s^n, x^n and the
  channel in that order.

No generator is built per trial.  ``TrialStreams`` reads the streams of a
chunk of trials in lockstep from ``_trial_draws``, which computes their raw
words bit for bit with integer arithmetic on arrays over the chunk; only a
pick that Lemire's rejection rule refuses sends its trial back to
``_rng_stream``.

The trial loops run on chunks of trials: ``encode``, ``transmit``,
``decode`` and the typicality kernel take a leading trial axis.  A chunk's
largest temporary stays near ``_TRIAL_CHUNK_BYTES``: the decoder's n floats
per codeword, the channel's cdf rows, or the raw words and uniforms; the
typicality kernel holds only 11 bytes per (trial, candidate) pair.  One-round
reconstruction splits each public bin's trials to the same budget.  Run
memory therefore does not grow with the number of trials.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (AuxiliaryEncoderPolicy, InputPolicy, StateChannel,
                      _entropy, check_integer, entropy_bits,
                      induce_input_joint, mi_bits, mutual_information,
                      policy_mi_triple)

MAX_CODEBOOK = 2 ** 20
# The exact-leakage budget, shared by both modes.  The sim-nodisc
# configuration at n = 18 needs 3.0e8 multiply-adds and 138 MiB.
MAX_LEAKAGE_MULADDS = 2 ** 30
MAX_LEAKAGE_BYTES = 192 * 2 ** 20
_KRON_CHUNK_BYTES = 8 * 2 ** 20
# Several temporaries of a chunk's size are alive at once, so a budget much
# above this raises resident memory without making the trial loops faster.
_TRIAL_CHUNK_BYTES = 256 * 2 ** 10
_TINY = np.finfo(float).tiny


class BudgetError(RuntimeError):
    """An enumeration or codebook size limit was exceeded."""


@dataclass(frozen=True)
class SimConfig:
    """Block length, typicality slack, rate backoff, and trial budget."""

    n: int
    epsilon: float
    rate_margin: float
    trials: int
    seed: int

    def __post_init__(self):
        for name, minimum in (("n", 1), ("trials", 1), ("seed", 0)):
            check_integer(name, getattr(self, name), minimum)
        if self.n > 24:
            raise ValueError("n must lie in [1, 24] (Monte Carlo ceiling)")
        # Chained comparisons are False for NaN, so NaN is rejected too.
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0 < self.rate_margin < math.inf:
            raise ValueError("rate_margin must be positive and finite")


@dataclass(frozen=True)
class CodebookRates:
    total_rate: float
    key_rate: float
    per_bin_rate: float


@dataclass(frozen=True)
class BinningCodebook:
    """u-sequence codebook with its random bin structure.

    ``sequences`` has shape (count, n); ``bin_of`` maps sequence index to bin
    index.  Rates are bits per symbol with total_rate = key_rate + per_bin_rate.
    """

    sequences: np.ndarray
    bin_of: np.ndarray
    num_bins: int
    rates: CodebookRates

    def __post_init__(self):
        seqs = np.array(self.sequences, dtype=np.int64, copy=True)
        bins = np.array(self.bin_of, dtype=np.int64, copy=True)
        if seqs.ndim != 2 or bins.shape != (seqs.shape[0],):
            raise ValueError("sequences must be (count, n) and bin_of (count,)")
        check_integer("num_bins", self.num_bins, 1)
        if bins.size and (bins.min() < 0 or bins.max() >= self.num_bins):
            raise ValueError("bin indices out of range")
        if seqs.shape[0] >= self.num_bins and np.unique(bins).size != self.num_bins:
            raise ValueError("every bin must be nonempty when count >= num_bins")
        seqs.setflags(write=False)
        bins.setflags(write=False)
        object.__setattr__(self, "sequences", seqs)
        object.__setattr__(self, "bin_of", bins)

    @property
    def count(self) -> int:
        return self.sequences.shape[0]

    @property
    def n(self) -> int:
        return self.sequences.shape[1]

    def with_singleton_bins(self) -> "BinningCodebook":
        """View of the same codebook keyed by the codeword index itself."""
        total = math.log2(max(1, self.count)) / self.n
        return BinningCodebook(
            sequences=self.sequences,
            bin_of=np.arange(self.count),
            num_bins=max(1, self.count),
            rates=CodebookRates(total, total, 0.0))


@dataclass(frozen=True)
class EncodeResult:
    """Per trial: the chosen codeword, the sampled input sequence, and
    whether any codeword was typical (False: the pick is the uniform
    fallback over the whole codebook)."""

    index: np.ndarray       # (trials,)
    x_seq: np.ndarray       # (trials, n)
    typical: np.ndarray     # (trials,) bool


@dataclass(frozen=True)
class DecodeResult:
    """Per trial: the decoded key and the most likely codeword in its bin;
    both are -1 where decoding failed."""

    index: np.ndarray       # (trials,)
    key: np.ndarray         # (trials,)


@dataclass(frozen=True)
class SimReport:
    """Aggregate outcome of a simulation run.

    ``leakage_method`` is always "exact": leakage is the exact mutual
    information of the run's codebook or bins, never an estimate (a run over
    the leakage budget raises ``BudgetError`` instead).  In one-round mode
    ``encode_failure_rate`` carries the sender-reconstruction failure rate
    (also present in diagnostics under an explicit name).
    """

    disagreement_prob: float
    leakage_bits_per_symbol: float
    achieved_key_rate: float
    encode_failure_rate: float
    leakage_method: str
    diagnostics: dict = field(default_factory=dict)


def _rng_stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# ---------------------------------------------------------------------------
# the streams _rng_stream(seed, *key, t) of many trials at once
# ---------------------------------------------------------------------------
#
# numpy's SeedSequence hashes its entropy words into a pool of four uint32
# words and hashes the pool into the seed of PCG64, a 128-bit LCG whose
# outputs are the XSL-RR permutation of its states (O'Neill, "PCG",
# HMC-CS-2014-0905).  Only the trial index, the last word or two of the
# entropy, differs between the streams of a run.  So numpy supplies the pool
# of SeedSequence(seed, spawn_key=key) once per (seed, key), and mixing in
# each trial's index, the seed of PCG64 and its outputs are integer
# arithmetic on arrays over trials.

_M32 = 0xFFFFFFFF
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(const: int, mult: int):
    """The (constant, next constant) pairs of SeedSequence's hash, in order."""
    while True:
        nxt = const * mult & _M32
        yield const, nxt
        const = nxt


def _hashmix(value, consts):
    """SeedSequence's hashmix of uint32 words (ints or arrays)."""
    const, mult = consts
    value = (value ^ const) * mult & _M32
    return value ^ value >> 16


def _mix(x, y):
    value = (_SS_MIX_L * x - _SS_MIX_R * y) & _M32
    return value ^ value >> 16


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int, key: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The pool of SeedSequence(seed, spawn_key=(*key, t)) before any word
    of t is mixed in, and the hash constants, shape (2, 2, 4), with which
    t's low and high words are mixed into it."""
    pool = np.random.SeedSequence(seed, spawn_key=key).pool.astype(np.uint32)
    # The pool took 16 hash constants, and 4 more per entropy word past four,
    # where the seed's uint32 words are padded to four.
    words = [max(1, -(-int(v).bit_length() // 32)) for v in (seed, *key)]
    consts = itertools.islice(_hash_constants(_SS_INIT_A, _SS_MULT_A),
                              4 * (max(4, words[0]) + sum(words[1:])), None)
    t_consts = np.array([[next(consts) for _ in range(4)] for _ in range(2)],
                        dtype=np.uint32).transpose(0, 2, 1)
    pool.setflags(write=False)
    t_consts.setflags(write=False)
    return pool, t_consts


_STATE_CONSTS = np.array(list(itertools.islice(
    _hash_constants(_SS_INIT_B, _SS_MULT_B), 8)), dtype=np.uint32).T


@functools.lru_cache(maxsize=16)
def _pcg_jumps(k: int) -> tuple[np.ndarray, ...]:
    """(hi, lo) words of P_j and Q_j, j < k, such that the state behind
    PCG64's j-th output is P_j * initstate + Q_j * inc (mod 2^128).

    Seeding leaves the state A (initstate + inc) + inc, and each output
    first steps it to A state + inc.
    """
    mod = 2 ** 128
    p, q = _PCG_MULT, _PCG_MULT + 1
    jumps = []
    for _ in range(k):
        p, q = p * _PCG_MULT % mod, (q * _PCG_MULT + 1) % mod
        jumps.append((p >> 64, p & 2 ** 64 - 1, q >> 64, q & 2 ** 64 - 1))
    out = np.array(jumps, dtype=np.uint64).T.copy()
    out.setflags(write=False)
    return tuple(out)


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """(a * b) mod 2^128 on (hi, lo) uint64 words, broadcast."""
    a1, a0 = a_lo >> 32, a_lo & _M32
    b1, b0 = b_lo >> 32, b_lo & _M32
    cross1, cross2 = a1 * b0, a0 * b1
    carry = a0 * b0
    carry >>= 32
    hi = a1 * b1
    for cross in (cross1, cross2):
        carry += cross & _M32
        cross >>= 32
        hi += cross
    carry >>= 32
    hi += carry
    hi += np.multiply(a_lo, b_hi, out=carry)
    hi += np.multiply(a_hi, b_lo, out=carry)
    return hi, np.multiply(a_lo, b_lo, out=carry)


def _trial_draws(seed: int, key: tuple, trials, k: int) -> np.ndarray:
    """The first k raw 64-bit outputs of ``_rng_stream(seed, *key, t)`` for
    each t in ``trials``, shape (len(trials), k), bit for bit."""
    trials = np.asarray(trials, dtype=np.int64)
    pool, t_consts = _seed_pool(seed, key)
    pool = _mix(pool, _hashmix((trials & _M32).astype(np.uint32)[:, None],
                               t_consts[0]))
    high = trials >> 32            # a second word only where t >= 2^32
    if high.any():
        pool = np.where((high > 0)[:, None],
                        _mix(pool, _hashmix(high.astype(np.uint32)[:, None],
                                            t_consts[1])), pool)
    state = _hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], _STATE_CONSTS)
    seeds = state[:, 0::2].astype(np.uint64) | state[:, 1::2].astype(np.uint64) << 32
    init_hi, init_lo, seq_hi, seq_lo = (seeds[:, i:i + 1] for i in range(4))
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    p_hi, p_lo, q_hi, q_lo = _pcg_jumps(k)
    hi, lo = _mul128(init_hi, init_lo, p_hi, p_lo)
    inc_part_hi, inc_part_lo = _mul128(inc_hi, inc_lo, q_hi, q_lo)
    lo += inc_part_lo
    hi += inc_part_hi
    hi += lo < inc_part_lo
    # XSL-RR: the xor of the halves, rotated right by the top six bits.
    rot = hi >> 58
    hi ^= lo
    np.left_shift(hi, (64 - rot) & 63, out=lo)
    hi >>= rot
    hi |= lo
    return hi


class TrialStreams:
    """The streams ``_rng_stream(seed, *key, t)`` of a chunk of trials, read
    in lockstep, one row per trial.

    ``random`` and ``integers`` make the draws of the Generator methods of
    the same names, from ``width`` raw words per row drawn up front by
    ``_trial_draws``.  A uniform is (w >> 11) 2^-53 of the next word w.
    ``integers(k)`` is Lemire's bounded integer (ACM TOMACS 2019) on the low
    32 bits of the next word, and draws nothing for k = 1.  The rare row whose
    word Lemire's threshold rejects is redrawn by ``_rng_stream`` itself,
    which then also supplies the row's later words.
    """

    def __init__(self, seed: int, key: tuple, trials, width: int):
        self.seed, self.key = seed, key
        self.trials = np.asarray(trials, dtype=np.int64)
        self.words = _trial_draws(seed, key, self.trials, width)
        self.pos = np.zeros(len(self.trials), dtype=np.int64)

    def __len__(self) -> int:
        return len(self.trials)

    def random(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1) per row, shape (rows, n)."""
        words = np.take_along_axis(self.words, self.pos[:, None] + np.arange(n),
                                   axis=1)
        self.pos += n
        return (words >> 11) * 2.0 ** -53

    def integers(self, bounds) -> np.ndarray:
        """One integer in [0, bounds[r]) per row r."""
        bounds = np.asarray(bounds, dtype=np.int64)
        k = bounds.astype(np.uint64)
        scaled = (self.words[np.arange(len(self)), self.pos] & _M32) * k
        picks = (scaled >> 32).astype(np.int64)
        # Past 2^32 the Generator draws 64-bit words; no simulator bound does.
        redraw = (k > 2 ** 32) | ((scaled & _M32) < 2 ** 32 % k)
        for r in np.flatnonzero(redraw):
            rng = _rng_stream(self.seed, *self.key, int(self.trials[r]))
            start = int(self.pos[r])
            rng.bit_generator.random_raw(start)
            picks[r] = rng.integers(bounds[r])
            self.words[r, start + 1:] = rng.bit_generator.random_raw(
                self.words.shape[1] - start - 1)
        self.pos += bounds > 1
        return picks


def _chunk_rows(row_bytes: int) -> int:
    """Rows (trials or state sequences) per chunk: at least one, and few
    enough that a temporary of ``row_bytes`` per row fits the budget."""
    return max(1, _TRIAL_CHUNK_BYTES // max(1, row_bytes))


def _sequences(alphabet: int, n: int, lo: int, hi: int) -> np.ndarray:
    """Sequences lo, ..., hi - 1 of alphabet^n in lexicographic order (the
    order of ``itertools.product``), shape (hi - lo, n)."""
    powers = alphabet ** np.arange(n - 1, -1, -1)
    return np.arange(lo, hi)[:, None] // powers % alphabet


def _typical_pairs(rows: np.ndarray, fixed: np.ndarray, pmf: np.ndarray,
                   eps: float) -> np.ndarray:
    """(trials, m) strong typicality of each rows[i] (m, n) against each
    fixed[t] (trials, n) under pmf[a, b]: a cell's count c passes if
    |c / n - pmf| <= eps + 1e-12, and only c = 0 if pmf is 0.  Each cell thus
    admits an interval [lo, hi] (empty if lo > hi), held against its counts,
    which 0/1 float matrix products give exactly: 11 bytes per pair."""
    n = rows.shape[1]
    flat = pmf.ravel()
    c = np.arange(n + 1)[:, None]
    admitted = (np.abs(c / n - flat) <= eps + 1e-12) & ((flat > 0) | (c == 0))
    lo = np.where(admitted.any(axis=0), admitted.argmax(axis=0), n + 1)
    hi = n - admitted[::-1].argmax(axis=0)
    # c / n - p is nondecreasing in c, so no admitted set has a gap.
    assert (admitted.sum(axis=0) == np.maximum(hi - lo + 1, 0)).all()
    ok = np.ones((len(fixed), len(rows)), dtype=bool)
    for cell in np.flatnonzero((lo > 0) | (hi < n)):   # others admit any count
        a, b = divmod(int(cell), pmf.shape[1])
        counts = (fixed == b).astype(float) @ (rows == a).T.astype(float)
        ok &= (counts >= lo[cell]) & (counts <= hi[cell])
    return ok


def is_jointly_typical(a_seq, b_seq, pmf: np.ndarray, eps: float) -> bool:
    """Strong joint typicality against pmf[a, b] of two nonempty 1-D sequences
    of equal length, with integer symbols inside pmf.shape (else ValueError)."""
    seqs = np.asarray(a_seq), np.asarray(b_seq)
    if seqs[0].ndim != 1 or seqs[0].shape != seqs[1].shape or not seqs[0].size:
        raise ValueError("sequences must be nonempty, 1-D and of equal length")
    for seq, size in zip(seqs, np.shape(pmf)):
        if seq.dtype.kind not in "iu" or seq.min() < 0 or seq.max() >= size:
            raise ValueError(f"symbols must be integers in [0, {size})")
    return bool(_typical_pairs(seqs[0][None], seqs[1][None], pmf, eps)[0, 0])


def _joint_u_s(channel: StateChannel, policy: AuxiliaryEncoderPolicy) -> np.ndarray:
    """p(u, s), shape (u, s)."""
    return (channel.state_pmf[:, None] * policy.u_given_s).T


def _joint_u_yr(channel: StateChannel, policy: AuxiliaryEncoderPolicy) -> np.ndarray:
    """p(u, yr), shape (u, yr)."""
    return np.einsum("us,usx,xsr->ur", _joint_u_s(channel, policy),
                     policy.x_given_us, channel.receiver_kernel())


def _sample_rows(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One categorical draw per uniform; cdf[..., :] is the cumulative pmf
    it reads, broadcast against ``uniforms``."""
    return (cdf < uniforms[..., None]).sum(axis=-1)


def _kernel_cdf(channel: StateChannel) -> np.ndarray:
    """cdf of the kernel over (yr, ye) pairs, shape (x, s, yr * ye)."""
    return np.cumsum(channel.kernel.reshape(channel.x_size, channel.s_size, -1),
                     axis=2)


def build_codebook(channel: StateChannel, policy: AuxiliaryEncoderPolicy,
                   cfg: SimConfig) -> BinningCodebook:
    """Draw the i.i.d. u-sequence codebook and randomly partition it into bins.

    The sequence count is ceil(2^(n (I(U;Yr) - margin))) and the bin count
    ceil(2^(n (I(U;Yr) - I(U;Ye) - margin))), so each bin holds about
    2^(n I(U;Ye)) sequences.  A nonpositive key exponent collapses to a single
    bin (key rate 0); the simulator still runs and reports zero leakage then.
    The sequences and the partition are drawn from ``_rng_stream(cfg.seed, 0)``.
    """
    i_uyr, i_uye, _ = policy_mi_triple(channel, policy)
    n = cfg.n
    count = math.ceil(2.0 ** (n * (i_uyr - cfg.rate_margin)))
    if count > MAX_CODEBOOK:
        raise BudgetError(
            f"codebook would need {count} sequences (limit {MAX_CODEBOOK}); "
            "reduce n or increase rate_margin")
    count = max(1, count)
    bins = max(1, math.ceil(2.0 ** (n * (i_uyr - i_uye - cfg.rate_margin))))
    bins = min(bins, count)
    p_u = np.einsum("s,su->u", channel.state_pmf, policy.u_given_s)
    p_u = p_u / p_u.sum()
    rng = _rng_stream(cfg.seed, 0)
    sequences = rng.choice(policy.u_size, size=(count, n), p=p_u)
    bin_of = np.empty(count, dtype=np.int64)
    bin_of[rng.permutation(count)] = np.arange(count) % bins
    total_rate = math.log2(count) / n
    key_rate = math.log2(bins) / n
    return BinningCodebook(
        sequences=sequences, bin_of=bin_of, num_bins=bins,
        rates=CodebookRates(total_rate, key_rate, total_rate - key_rate))


@dataclass(frozen=True)
class _NoDiscTables:
    """Single-letter tables of a no-discussion run, built once per run."""

    p_us: np.ndarray            # p(u, s), the encoder's typicality pmf
    x_cdf: np.ndarray           # cdf of p(x | u, s) over x, shape (u, s, x)
    log_yr_given_u: np.ndarray  # log p(yr | u), -inf where p(u, yr) = 0
    state_cdf: np.ndarray       # cdf of p(s), shape (s,)
    kernel_cdf: np.ndarray      # see _kernel_cdf


def _no_disc_tables(channel: StateChannel,
                    policy: AuxiliaryEncoderPolicy) -> _NoDiscTables:
    joint = _joint_u_yr(channel, policy)
    p_u = np.maximum(joint.sum(axis=1, keepdims=True), _TINY)
    with np.errstate(divide="ignore"):
        log_yr_given_u = np.log(joint / p_u)
    return _NoDiscTables(_joint_u_s(channel, policy),
                         np.cumsum(policy.x_given_us, axis=2), log_yr_given_u,
                         np.cumsum(channel.state_pmf), _kernel_cdf(channel))


def encode(codebook: BinningCodebook, tables: _NoDiscTables, s_seqs,
           epsilon: float, streams: TrialStreams) -> EncodeResult:
    """Per trial, pick a codeword jointly typical with s^n, then sample x^n.

    ``s_seqs`` is (trials, n), and row t of ``streams`` is trial t's stream.
    The codeword is drawn uniformly from the typical candidates; where none
    qualifies (an encode failure, reported in ``typical`` and not raised) it
    is drawn uniformly from the whole codebook.  Each stream draws its pick,
    then the n uniforms of x^n.
    """
    s_seqs = np.asarray(s_seqs, dtype=np.int64)
    if s_seqs.shape != (len(streams), codebook.n):
        raise ValueError(f"s_seqs must have shape ({len(streams)}, {codebook.n})")
    mask = _typical_pairs(codebook.sequences, s_seqs, tables.p_us, epsilon)
    sizes = mask.sum(axis=1)
    picks = streams.integers(np.where(sizes > 0, sizes, codebook.count))
    uniforms = streams.random(codebook.n)
    typical = sizes > 0
    # The pick-th typical codeword is where the running count passes pick.
    nth = (mask.cumsum(axis=1) > picks[:, None]).argmax(axis=1)
    index = np.where(typical, nth, picks)
    x_seqs = _sample_rows(tables.x_cdf[codebook.sequences[index], s_seqs],
                          uniforms)
    return EncodeResult(index=index, x_seq=x_seqs, typical=typical)


def decode(codebook: BinningCodebook, tables: _NoDiscTables,
           yr_seqs) -> DecodeResult:
    """Maximum-likelihood key per trial: the bin whose codewords best
    explain the row of ``yr_seqs`` (shape (trials, n)).

    Each codeword u^n scores prod_i p(yr_i | u_i) under the single-letter law
    p(u, yr); the scores are summed per bin, in codeword order, and the bin
    with the largest sum is the key.  ``index`` is the most likely codeword
    inside that bin.  A tie for the top bin sum, or zero likelihood for
    every codeword, is a decode failure (key and index -1).
    """
    yr_seqs = np.asarray(yr_seqs, dtype=np.int64)
    if yr_seqs.ndim != 2 or yr_seqs.shape[1] != codebook.n:
        raise ValueError(f"yr_seqs must have shape (trials, {codebook.n})")
    trials = len(yr_seqs)
    log_lik = tables.log_yr_given_u[codebook.sequences[None, :, :],
                                    yr_seqs[:, None, :]].sum(axis=2)
    top = log_lik.max(axis=1)
    live = top > -np.inf
    scores = np.exp(log_lik - np.where(live, top, 0.0)[:, None])
    bins = codebook.num_bins
    offsets = (np.arange(trials) * bins)[:, None]
    bin_sums = np.bincount((codebook.bin_of + offsets).ravel(),
                           weights=scores.ravel(),
                           minlength=trials * bins).reshape(trials, bins)
    key = bin_sums.argmax(axis=1)
    # Sums that are equal in exact arithmetic may differ in the last bits
    # after rounding; a bin that close to the top is a tie, not a loss.
    best = bin_sums[np.arange(trials), key][:, None]
    ok = live & (np.count_nonzero(bin_sums >= best * (1.0 - 1e-12), axis=1) == 1)
    in_bin = np.where(codebook.bin_of == key[:, None], log_lik, -np.inf)
    return DecodeResult(index=np.where(ok, in_bin.argmax(axis=1), -1),
                        key=np.where(ok, key, -1))


def transmit(channel: StateChannel, kernel_cdf: np.ndarray, x_seqs, s_seqs,
             uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample (yr, ye) per symbol from the memoryless kernel, one uniform
    per symbol; ``kernel_cdf`` is ``_kernel_cdf(channel)``.  Any leading
    (trial) axes are kept."""
    pair = _sample_rows(kernel_cdf[x_seqs, s_seqs], uniforms)
    return pair // channel.ye_size, pair % channel.ye_size


def _check_leakage_cost(rows: int, n: int, a: int, c: int, floats: int) -> None:
    """Refuse an exact leakage over budget: ``_add_kron_rows`` over ``rows``
    rows of n (a, c) factors takes about rows · n · max(a, c)^n multiply-adds,
    and ``floats`` counts the weights and the key × view table it holds."""
    muladds, held = rows * n * max(a, c) ** n, 8 * floats
    if muladds > MAX_LEAKAGE_MULADDS or held > MAX_LEAKAGE_BYTES:
        raise BudgetError(
            f"exact leakage needs {muladds} multiply-adds and {held} bytes "
            f"(limits {MAX_LEAKAGE_MULADDS} and {MAX_LEAKAGE_BYTES}); reduce n")


def _add_kron_rows(table: np.ndarray, rows: np.ndarray, v: np.ndarray,
                   law: np.ndarray, seqs: np.ndarray) -> None:
    """table[rows[b]] += v[b] @ (law[seqs[b, 0]] ⊗ ... ⊗ law[seqs[b, n-1]]).

    Each step contracts a row's leading a-axis with one (a, c) matrix law[u]
    and appends the c-axis last, so n steps end in Kronecker order.  Chunks
    of rows keep each intermediate under ``_KRON_CHUNK_BYTES``.
    """
    _, a, c = law.shape
    count, n = seqs.shape
    step = max(1, _KRON_CHUNK_BYTES // (8 * max(a, c) ** n))
    for lo in range(0, count, step):
        part, mats = v[lo:lo + step], law[seqs[lo:lo + step]]
        for i in range(n):
            part = np.einsum("bar,bac->brc",
                             part.reshape(len(part), a, -1), mats[:, i])
        np.add.at(table, rows[lo:lo + step], part.reshape(len(part), -1))


def _leakage_bits(table: np.ndarray, n: int) -> float:
    """I(key; view) / n in bits from an unnormalized (key, view) table,
    which it normalizes in place.  A one-valued key leaks exactly 0."""
    total = table.sum()
    if len(table) == 1 or not total > 0:
        return 0.0
    table /= total
    return float(mi_bits(table)) / n


def exact_leakage(codebook: BinningCodebook, channel: StateChannel,
                  policy: AuxiliaryEncoderPolicy, cfg: SimConfig) -> float:
    """Exact I(K; Ye^n) / n in bits per symbol for the binned key.

    The joint law of (K, Ye^n) follows the i.i.d. state, the encoder's
    selection w(s^n, c) (uniform over typical candidates, else over the whole
    codebook), the per-symbol x sampling and the memoryless kernel: codeword
    c adds v_c (M_c1 ⊗ ... ⊗ M_cn) to its bin, with v_c[s^n] = p(s^n) w(s^n, c)
    and M_ci[s, ye] = p(ye | u_ci, s), applied mode by mode in about
    count · n · max(|S|, |Ye|)^n multiply-adds, plus count · |S|^n floats
    for v.  This is the module's ground-truth secrecy oracle.  A constant
    view (one ye symbol whatever x and s are) leaks nothing and costs
    nothing; any other raises ``BudgetError`` over the leakage budget,
    before any work.
    """
    p_ye_xs = channel.eavesdropper_kernel()
    if np.count_nonzero(p_ye_xs.any(axis=(0, 1))) == 1:
        return 0.0
    n = codebook.n
    _check_leakage_cost(codebook.count, n, channel.s_size, channel.ye_size,
                        codebook.count * channel.s_size ** n
                        + codebook.num_bins * channel.ye_size ** n)
    p_us = _joint_u_s(channel, policy)
    p_ye_us = np.einsum("usx,xse->use", policy.x_given_us,   # x summed out
                        p_ye_xs)
    states = channel.s_size ** n
    weights = np.empty((codebook.count, states))
    log_ps = np.log(np.maximum(channel.state_pmf, 1e-300))
    step = _chunk_rows(8 * max(codebook.count, n))   # a float share per pair
    for lo in range(0, states, step):
        s_seqs = _sequences(channel.s_size, n, lo, min(lo + step, states))
        prob_s = np.exp(log_ps[s_seqs].sum(axis=1))
        mask = _typical_pairs(codebook.sequences, s_seqs, p_us, cfg.epsilon)
        k = mask.sum(axis=1, keepdims=True)
        share = np.where(k > 0, mask / np.maximum(k, 1), 1.0 / codebook.count)
        weights[:, lo:lo + len(s_seqs)] = (prob_s[:, None] * share).T
    table = np.zeros((codebook.num_bins, channel.ye_size ** n))
    _add_kron_rows(table, codebook.bin_of, weights, p_ye_us, codebook.sequences)
    return _leakage_bits(table, n)


def run_no_discussion(channel: StateChannel, policy: AuxiliaryEncoderPolicy,
                      cfg: SimConfig) -> SimReport:
    """Monte Carlo episodes of {draw state, encode, transmit, decode}.

    Trials run in chunks, each read through one ``TrialStreams``: the
    chunk's streams draw s^n, one batched typicality test covers every
    (codeword, s^n) pair of the chunk, each stream then draws its pick and
    the uniforms of x^n and of the channel, and ``encode``, ``transmit`` and
    ``decode`` run on the whole chunk.
    Disagreement counts decode failures (tied bins, or no codeword with
    nonzero likelihood) as well as key mismatches.  Exact leakage is
    computed right after the codebook, so a run over the leakage budget
    raises ``BudgetError`` before its first trial.
    """
    codebook = build_codebook(channel, policy, cfg)
    leakage = exact_leakage(codebook, channel, policy, cfg)
    tables = _no_disc_tables(channel, policy)
    n = cfg.n
    disagreements = 0
    encode_failures = 0
    key_counts = np.zeros(codebook.num_bins, dtype=np.int64)
    width = 3 * n + 1               # s^n, the pick, x^n and the channel
    step = _chunk_rows(8 * max(codebook.count * n, n * tables.kernel_cdf.shape[2],
                               width + n))
    for lo in range(0, cfg.trials, step):
        streams = TrialStreams(cfg.seed, (1,),
                               np.arange(lo, min(lo + step, cfg.trials)), width)
        s_seqs = _sample_rows(tables.state_cdf, streams.random(n))
        enc = encode(codebook, tables, s_seqs, cfg.epsilon, streams)
        yr_seqs, _ = transmit(channel, tables.kernel_cdf, enc.x_seq, s_seqs,
                              streams.random(n))
        keys = codebook.bin_of[enc.index]
        key_counts += np.bincount(keys, minlength=codebook.num_bins)
        encode_failures += int(np.count_nonzero(~enc.typical))
        dec = decode(codebook, tables, yr_seqs)
        disagreements += int(np.count_nonzero(dec.key != keys))
    achieved = _entropy(key_counts / cfg.trials) / cfg.n
    return SimReport(
        disagreement_prob=disagreements / cfg.trials,
        leakage_bits_per_symbol=leakage,
        achieved_key_rate=achieved,
        encode_failure_rate=encode_failures / cfg.trials,
        leakage_method="exact",
        diagnostics={
            "num_sequences": float(codebook.count),
            "num_bins": float(codebook.num_bins),
            "total_rate": codebook.rates.total_rate,
            "key_rate": codebook.rates.key_rate,
            "trials": float(cfg.trials),
        })


# ---------------------------------------------------------------------------
# one-round discussion scheme
# ---------------------------------------------------------------------------

def _enumerate_sequences(alphabet: int, n: int) -> np.ndarray:
    if alphabet ** n > MAX_CODEBOOK:
        raise BudgetError(
            f"enumerating {alphabet}^{n} output sequences exceeds the "
            f"{MAX_CODEBOOK} limit; reduce n")
    return _sequences(alphabet, n, 0, alphabet ** n)


@dataclass(frozen=True)
class _OneRoundTables:
    """Receiver-sequence partition and single-letter laws for one-round runs."""

    all_yr: np.ndarray          # (|Yr|^n, n)
    bin_of: np.ndarray          # public bin per sequence (overflow = num_bins)
    sub_of: np.ndarray          # key sub-bin per sequence
    num_bins: int
    num_subbins: int
    p_yr_xs: np.ndarray         # p(yr, (x, s)) single-letter
    kernel_cdf: np.ndarray      # see _kernel_cdf
    key_rate_target: float


def _one_round_tables(channel: StateChannel, policy: InputPolicy,
                      cfg: SimConfig) -> _OneRoundTables:
    joint = induce_input_joint(channel, policy)
    h_yr_given_xs = (entropy_bits(joint, ["X", "S", "Yr"])
                     - entropy_bits(joint, ["X", "S"]))
    i_xs = mutual_information(joint, ["Yr"], ["X", "S"])
    i_e = mutual_information(joint, ["Yr"], ["Ye"])
    n = cfg.n
    num_bins = max(1, math.ceil(2.0 ** (n * (h_yr_given_xs + cfg.rate_margin))))
    key_exponent = i_xs - i_e - cfg.rate_margin
    num_subbins = max(1, math.ceil(2.0 ** (n * key_exponent))) \
        if key_exponent > 0 else 1
    # Fail before any enumeration, on at most this many bins: the rows of
    # one_round_exact_leakage are the |Yr|^n sequences, with one weight each.
    outputs = channel.yr_size ** n
    _check_leakage_cost(outputs, n, 1, channel.ye_size, outputs + num_subbins
                        * (min(num_bins, outputs) + 1) * channel.ye_size ** n)
    all_yr = _enumerate_sequences(channel.yr_size, cfg.n)
    p_yr = joint.probs.sum(axis=(0, 1, 3))
    typ_idx = np.flatnonzero(_typical_pairs(
        all_yr, np.zeros((1, n), dtype=np.int64), p_yr[:, None], cfg.epsilon)[0])
    num_bins = min(num_bins, max(1, typ_idx.size))
    ranked = typ_idx[_rng_stream(cfg.seed, 0).permutation(typ_idx.size)]
    bin_of = np.full(all_yr.shape[0], num_bins, dtype=np.int64)   # overflow bin
    sub_of = np.zeros(all_yr.shape[0], dtype=np.int64)
    # Rank r fills bin r % num_bins as that bin's (r // num_bins)-th member.
    rounds, bin_of[ranked] = np.divmod(np.arange(ranked.size), num_bins)
    sub_of[ranked] = rounds % num_subbins
    p_yr_xs = np.einsum("s,sx,xsr->rxs", channel.state_pmf, policy.x_given_s,
                        channel.receiver_kernel()).reshape(channel.yr_size, -1)
    return _OneRoundTables(all_yr=all_yr, bin_of=bin_of, sub_of=sub_of,
                           num_bins=num_bins, num_subbins=num_subbins,
                           p_yr_xs=p_yr_xs, kernel_cdf=_kernel_cdf(channel),
                           key_rate_target=max(0.0, key_exponent))


def _reconstruct(tables: _OneRoundTables, xs_seqs: np.ndarray,
                 published: np.ndarray, epsilon: float) -> np.ndarray:
    """Per trial, the unique member of its published bin jointly typical
    with its (x, s) pairs, coded x * |S| + s in ``xs_seqs`` (trials, n);
    -1 where no member or several are.  Trials go by bin, in budget pieces."""
    found = np.full(len(published), -1, dtype=np.int64)
    for b in np.unique(published):
        members = np.flatnonzero(tables.bin_of == b)
        in_bin = np.flatnonzero(published == b)
        step = _chunk_rows(11 * len(members))   # see _typical_pairs
        for trials in np.split(in_bin, np.arange(step, len(in_bin), step)):
            hits = _typical_pairs(tables.all_yr[members], xs_seqs[trials],
                                  tables.p_yr_xs, epsilon)
            unique = hits.sum(axis=1) == 1
            found[trials[unique]] = members[hits[unique].argmax(axis=1)]
    return found


def one_round_exact_leakage(tables: _OneRoundTables, channel: StateChannel,
                            policy: InputPolicy, cfg: SimConfig) -> float:
    """Exact I(K; Ye^n, public bin) / n for the one-round scheme.

    Uses the factorization of (Yr^n, Ye^n) into an i.i.d. per-symbol joint
    (x and s are marginalized per symbol), so the mode products run over the
    |Yr|^n output sequences, a cost ``_one_round_tables`` has checked.
    """
    n = cfg.n
    m = np.einsum("s,sx,xsre->re", channel.state_pmf, policy.x_given_s,
                  channel.kernel)
    # Rows (sub, bin): the key indexes blocks of rows, the view is (bin, ye^n).
    views = tables.num_bins + 1
    table = np.zeros((tables.num_subbins * views, channel.ye_size ** n))
    _add_kron_rows(table, tables.sub_of * views + tables.bin_of,
                   np.ones((len(tables.all_yr), 1)), m[:, None, :], tables.all_yr)
    return _leakage_bits(table.reshape(tables.num_subbins, -1), n)


def run_one_round_discussion(channel: StateChannel, policy: InputPolicy,
                             cfg: SimConfig) -> SimReport:
    """Simulate the one-round public-discussion scheme.

    Per trial: the sender draws x^n from p(x|s); the receiver observes yr^n,
    publishes its bin index (an overflow marker when yr^n is atypical), and
    keeps its sub-bin index as the key; the sender reconstructs yr^n from
    (x^n, s^n, bin) by unique joint typicality and declares the reconstructed
    sub-bin.  Reconstruction failures count as disagreements and are reported
    through ``encode_failure_rate``.  Trials run in chunks: one
    ``TrialStreams`` draws the 3n uniforms of every trial of the chunk, and
    the rest runs on the chunk, the reconstruction once per published bin.
    """
    tables = _one_round_tables(channel, policy, cfg)
    n = cfg.n
    state_cdf = np.cumsum(channel.state_pmf)
    x_cdf = np.cumsum(policy.x_given_s, axis=1)
    powers = channel.yr_size ** np.arange(n - 1, -1, -1)
    disagreements = 0
    recon_failures = 0
    unique_correct = 0
    key_counts = np.zeros(tables.num_subbins, dtype=np.int64)
    # 3n raw words and 3n uniforms per trial; _reconstruct splits its own.
    step = _chunk_rows(8 * n * max(tables.kernel_cdf.shape[2], 6))
    for lo in range(0, cfg.trials, step):
        uniforms = TrialStreams(cfg.seed, (1,),
                                np.arange(lo, min(lo + step, cfg.trials)),
                                3 * n).random(3 * n)
        s_seqs = _sample_rows(state_cdf, uniforms[:, :n])
        x_seqs = _sample_rows(x_cdf[s_seqs], uniforms[:, n:2 * n])
        yr_seqs, _ = transmit(channel, tables.kernel_cdf, x_seqs, s_seqs,
                              uniforms[:, 2 * n:])
        yr_index = yr_seqs @ powers
        receiver_keys = tables.sub_of[yr_index]
        key_counts += np.bincount(receiver_keys, minlength=tables.num_subbins)
        recon = _reconstruct(tables, x_seqs * channel.s_size + s_seqs,
                             tables.bin_of[yr_index], cfg.epsilon)
        found = recon >= 0
        recon_failures += int(np.count_nonzero(~found))
        unique_correct += int(np.count_nonzero(recon == yr_index))
        disagreements += int(np.count_nonzero(
            tables.sub_of[recon[found]] != receiver_keys[found]))
    disagreements += recon_failures
    unique_lookups = cfg.trials - recon_failures
    leakage = one_round_exact_leakage(tables, channel, policy, cfg)
    achieved = _entropy(key_counts / cfg.trials) / n
    return SimReport(
        disagreement_prob=disagreements / cfg.trials,
        leakage_bits_per_symbol=leakage,
        achieved_key_rate=achieved,
        encode_failure_rate=recon_failures / cfg.trials,
        leakage_method="exact",
        diagnostics={
            "reconstruction_failure_rate": recon_failures / cfg.trials,
            "reconstruction_success_rate": 1.0 - recon_failures / cfg.trials,
            "unique_lookups": float(unique_lookups),
            "unique_and_correct": float(unique_correct),
            "num_public_bins": float(tables.num_bins),
            "num_subbins": float(tables.num_subbins),
            "key_rate_target": tables.key_rate_target,
            "trials": float(cfg.trials),
        })
