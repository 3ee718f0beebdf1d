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
cells with zero model probability must be unoccupied.  The encoder and the
one-round reconstruction use it; reconstruction ambiguity counts as an
error.  The no-discussion decoder is bin-wise maximum likelihood under the
single-letter law p(yr | u): it reads no ``epsilon``, and a tie between bins
counts as an error.  When the encoder finds no typical codeword it falls
back to a uniformly random codeword (counted in ``encode_failure_rate``);
the exact-leakage enumeration applies the same fallback law.  Exact leakage
applies each codeword's Kronecker product one mode at a time, never forming
it: about count · n · max(|S|, |Ye|)^n multiply-adds, in chunks of codewords.

Every operation is a pure function of (inputs, seed): replays are
bit-identical, and each trial derives its own random stream from
(seed, trial index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .channel import (AuxiliaryEncoderPolicy, InputPolicy, StateChannel,
                      _entropy, check_integer, entropy_bits,
                      induce_input_joint, mi_bits, mutual_information,
                      policy_mi_triple)

MAX_CODEBOOK = 2 ** 20
MAX_ENUM_ATOMS = 10 ** 8
_KRON_CHUNK_BYTES = 8 * 2 ** 20
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
    index: int
    u_seq: np.ndarray
    x_seq: np.ndarray


@dataclass(frozen=True)
class DecodeResult:
    index: int
    u_seq: np.ndarray
    key: int


@dataclass(frozen=True)
class SimReport:
    """Aggregate outcome of a simulation run.

    ``leakage_method`` is "exact" when leakage came from full enumeration and
    "estimate" for the plug-in Monte Carlo estimator.  In one-round mode
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


def _joint_counts_rows(rows: np.ndarray, fixed: np.ndarray, a_size: int,
                       b_size: int) -> np.ndarray:
    """Per-row joint (a, b) cell counts of (rows[i, :], fixed)."""
    m, _ = rows.shape
    flat = rows * b_size + fixed[None, :]
    offsets = (np.arange(m) * (a_size * b_size))[:, None]
    counts = np.bincount((flat + offsets).ravel(),
                         minlength=m * a_size * b_size)
    return counts.reshape(m, a_size * b_size)


def _typical_mask(counts: np.ndarray, pmf: np.ndarray, n: int,
                  eps: float) -> np.ndarray:
    """Strong-typicality test per row of cell counts against a flattened pmf."""
    flat = pmf.ravel()
    emp = counts / n
    ok = np.abs(emp - flat[None, :]).max(axis=1) <= eps + 1e-12
    zero_cells = flat <= 0
    if zero_cells.any():
        ok &= (counts[:, zero_cells] == 0).all(axis=1)
    return ok


def is_jointly_typical(a_seq, b_seq, pmf: np.ndarray, eps: float) -> bool:
    """Strong joint typicality of one sequence pair against pmf[a, b]."""
    a_seq = np.asarray(a_seq, dtype=np.int64)
    b_seq = np.asarray(b_seq, dtype=np.int64)
    counts = _joint_counts_rows(a_seq[None, :], b_seq, pmf.shape[0], pmf.shape[1])
    return bool(_typical_mask(counts, pmf, len(a_seq), eps)[0])


def _joint_u_s(channel: StateChannel, policy: AuxiliaryEncoderPolicy) -> np.ndarray:
    """p(u, s), shape (u, s)."""
    return (channel.state_pmf[:, None] * policy.u_given_s).T


def _joint_u_yr(channel: StateChannel, policy: AuxiliaryEncoderPolicy) -> np.ndarray:
    """p(u, yr), shape (u, yr)."""
    return np.einsum("us,usx,xsr->ur", _joint_u_s(channel, policy),
                     policy.x_given_us, channel.receiver_kernel())


def _sample_rows(cdf_rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row of cumulative pmfs."""
    u = rng.random(cdf_rows.shape[0])
    return (cdf_rows < u[:, None]).sum(axis=1)


def build_codebook(channel: StateChannel, policy: AuxiliaryEncoderPolicy,
                   cfg: SimConfig,
                   rng: np.random.Generator | None = None) -> BinningCodebook:
    """Draw the i.i.d. u-sequence codebook and randomly partition it into bins.

    The sequence count is ceil(2^(n (I(U;Yr) - margin))) and the bin count
    ceil(2^(n (I(U;Yr) - I(U;Ye) - margin))), so each bin holds about
    2^(n I(U;Ye)) sequences.  A nonpositive key exponent collapses to a single
    bin (key rate 0); the simulator still runs and reports zero leakage then.
    """
    if rng is None:
        rng = _rng_stream(cfg.seed, 0)
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
    state_cdf: np.ndarray       # state cdf, one row per symbol, shape (n, s)


def _no_disc_tables(channel: StateChannel, policy: AuxiliaryEncoderPolicy,
                    n: int) -> _NoDiscTables:
    joint = _joint_u_yr(channel, policy)
    p_u = np.maximum(joint.sum(axis=1, keepdims=True), _TINY)
    with np.errstate(divide="ignore"):
        log_yr_given_u = np.log(joint / p_u)
    return _NoDiscTables(_joint_u_s(channel, policy),
                         np.cumsum(policy.x_given_us, axis=2), log_yr_given_u,
                         np.cumsum(channel.state_pmf)[None, :].repeat(n, axis=0))


def encode(codebook: BinningCodebook, tables: _NoDiscTables, s_seq,
           epsilon: float, rng: np.random.Generator) -> EncodeResult | None:
    """Pick a codeword jointly typical with s_seq, then sample x per symbol.

    The codeword is drawn uniformly from the typical candidates.  Returns
    None when no codeword qualifies (an encode failure, counted by callers
    rather than raised).
    """
    s_seq = np.asarray(s_seq, dtype=np.int64)
    if s_seq.shape != (codebook.n,):
        raise ValueError(f"s_seq must have length {codebook.n}")
    counts = _joint_counts_rows(codebook.sequences, s_seq, *tables.p_us.shape)
    mask = _typical_mask(counts, tables.p_us, codebook.n, epsilon)
    candidates = np.flatnonzero(mask)
    if candidates.size == 0:
        return None
    index = int(candidates[rng.integers(candidates.size)])
    u_seq = codebook.sequences[index]
    return EncodeResult(index=index, u_seq=u_seq,
                        x_seq=_sample_rows(tables.x_cdf[u_seq, s_seq], rng))


def decode(codebook: BinningCodebook, tables: _NoDiscTables,
           yr_seq) -> DecodeResult | None:
    """Maximum-likelihood key: the bin whose codewords best explain yr_seq.

    Each codeword u^n scores prod_i p(yr_i | u_i) under the single-letter law
    p(u, yr); the scores are summed per bin and the bin with the largest sum
    is the key.  ``index`` is the most likely codeword inside that bin.  A
    tie for the top bin sum, or zero likelihood for every codeword, is a
    decode failure (None).
    """
    yr_seq = np.asarray(yr_seq, dtype=np.int64)
    if yr_seq.shape != (codebook.n,):
        raise ValueError(f"yr_seq must have length {codebook.n}")
    log_lik = tables.log_yr_given_u[codebook.sequences, yr_seq].sum(axis=1)
    top = int(log_lik.argmax())
    if log_lik[top] == -np.inf:
        return None
    scores = np.exp(log_lik - log_lik[top])
    bin_sums = np.bincount(codebook.bin_of, weights=scores,
                           minlength=codebook.num_bins)
    key = int(bin_sums.argmax())
    # Sums that are equal in exact arithmetic may differ in the last bits
    # after rounding; a bin that close to the top is a tie, not a loss.
    if np.count_nonzero(bin_sums >= bin_sums[key] * (1.0 - 1e-12)) > 1:
        return None
    if codebook.bin_of[top] != key:
        in_bin = np.where(codebook.bin_of == key, log_lik, -np.inf)
        top = int(in_bin.argmax())
    return DecodeResult(index=top, u_seq=codebook.sequences[top], key=key)


def transmit(channel: StateChannel, x_seq, s_seq,
             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample (yr, ye) per symbol from the memoryless kernel."""
    x_seq = np.asarray(x_seq, dtype=np.int64)
    s_seq = np.asarray(s_seq, dtype=np.int64)
    flat = channel.kernel.reshape(channel.x_size, channel.s_size, -1)
    cdf = np.cumsum(flat, axis=2)
    pair = _sample_rows(cdf[x_seq, s_seq], rng)
    return pair // channel.ye_size, pair % channel.ye_size


def _leakage_budget(channel: StateChannel, codebook: BinningCodebook) -> int:
    return (channel.s_size ** codebook.n) * codebook.count \
        * (channel.ye_size ** codebook.n)


def _check_atoms(atoms: int, remedy: str) -> None:
    """Refuse an exact-leakage enumeration of more than MAX_ENUM_ATOMS atoms."""
    if atoms > MAX_ENUM_ATOMS:
        raise BudgetError(
            f"exact leakage enumeration needs {atoms} atoms "
            f"(limit {MAX_ENUM_ATOMS}); {remedy}")


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
    """I(key; view) / n in bits from an unnormalized (key, view) table."""
    total = table.sum()
    return float(mi_bits(table / total)) / n if total > 0 else 0.0


def exact_leakage(codebook: BinningCodebook, channel: StateChannel,
                  policy: AuxiliaryEncoderPolicy, cfg: SimConfig) -> float:
    """Exact I(K; Ye^n) / n in bits per symbol for the binned key.

    The joint law of (K, Ye^n) follows the i.i.d. state, the encoder's
    selection w(s^n, c) (uniform over typical candidates, else over the whole
    codebook), the per-symbol x sampling and the memoryless kernel: codeword
    c adds v_c (M_c1 ⊗ ... ⊗ M_cn) to its bin, with v_c[s^n] = p(s^n) w(s^n, c)
    and M_ci[s, ye] = p(ye | u_ci, s), applied mode by mode in about
    count · n · max(|S|, |Ye|)^n multiply-adds, plus count · |S|^n floats
    for v.  This is the module's ground-truth secrecy oracle.
    """
    _check_atoms(_leakage_budget(channel, codebook),
                 "reduce n or the codebook size")
    if channel.ye_size == 1:   # a constant view; v alone could take 0.8 GB
        return 0.0
    n = codebook.n
    p_us = _joint_u_s(channel, policy)
    p_ye_us = np.einsum("usx,xse->use", policy.x_given_us,   # x summed out
                        channel.eavesdropper_kernel())
    weights = np.zeros((codebook.count, channel.s_size ** n))
    log_ps = np.log(np.maximum(channel.state_pmf, 1e-300))
    for j, s_tuple in enumerate(product(range(channel.s_size), repeat=n)):
        s_seq = np.asarray(s_tuple, dtype=np.int64)
        prob_s = float(np.exp(log_ps[s_seq].sum()))
        counts = _joint_counts_rows(codebook.sequences, s_seq, *p_us.shape)
        mask = _typical_mask(counts, p_us, n, cfg.epsilon)
        k = int(mask.sum())
        weights[:, j] = prob_s * (mask / k if k else 1.0 / codebook.count)
    table = np.zeros((codebook.num_bins, channel.ye_size ** n))
    _add_kron_rows(table, codebook.bin_of, weights, p_ye_us, codebook.sequences)
    return _leakage_bits(table, n)


def _plugin_mi_bits(pairs: dict, trials: int) -> float:
    """Plug-in MI estimate in bits from (key, observation) pair counts.

    Runs only when exact leakage is over budget, where a dense
    (bins x |Ye|^n) table for ``mi_bits`` could not hold the counts.
    """
    keys = {}
    obs = {}
    for (k, y), c in pairs.items():
        keys[k] = keys.get(k, 0) + c
        obs[y] = obs.get(y, 0) + c
    total = float(trials)
    mi = 0.0
    for (k, y), c in pairs.items():
        p = c / total
        mi += p * math.log2(p / ((keys[k] / total) * (obs[y] / total)))
    return max(0.0, mi)


def run_no_discussion(channel: StateChannel, policy: AuxiliaryEncoderPolicy,
                      cfg: SimConfig) -> SimReport:
    """Monte Carlo episodes of {draw state, encode, transmit, decode}.

    Disagreement counts decode failures (tied bins, or no codeword with
    nonzero likelihood) as well as key mismatches.  Exact leakage is
    attached when the enumeration budget permits, otherwise a plug-in
    estimate is flagged.
    """
    codebook = build_codebook(channel, policy, cfg, _rng_stream(cfg.seed, 0))
    tables = _no_disc_tables(channel, policy, cfg.n)
    disagreements = 0
    encode_failures = 0
    key_counts = np.zeros(codebook.num_bins)
    exact_ok = _leakage_budget(channel, codebook) <= MAX_ENUM_ATOMS
    pair_counts: dict = {}
    for t in range(cfg.trials):
        rng = _rng_stream(cfg.seed, 1, t)
        s_seq = _sample_rows(tables.state_cdf, rng)
        enc = encode(codebook, tables, s_seq, cfg.epsilon, rng)
        if enc is None:
            encode_failures += 1
            index = int(rng.integers(codebook.count))
            u_seq = codebook.sequences[index]
            enc = EncodeResult(index=index, u_seq=u_seq, x_seq=_sample_rows(
                tables.x_cdf[u_seq, s_seq], rng))
        yr_seq, ye_seq = transmit(channel, enc.x_seq, s_seq, rng)
        key = int(codebook.bin_of[enc.index])
        key_counts[key] += 1
        dec = decode(codebook, tables, yr_seq)
        if dec is None or dec.key != key:
            disagreements += 1
        if not exact_ok:
            pair = (key, tuple(int(v) for v in ye_seq))
            pair_counts[pair] = pair_counts.get(pair, 0) + 1
    if exact_ok:
        leakage = exact_leakage(codebook, channel, policy, cfg)
        method = "exact"
    else:
        leakage = _plugin_mi_bits(pair_counts, cfg.trials) / cfg.n
        method = "estimate"
    achieved = _entropy(key_counts / cfg.trials) / cfg.n
    return SimReport(
        disagreement_prob=disagreements / cfg.trials,
        leakage_bits_per_symbol=leakage,
        achieved_key_rate=achieved,
        encode_failure_rate=encode_failures / cfg.trials,
        leakage_method=method,
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
    return np.indices((alphabet,) * n).reshape(n, -1).T.astype(np.int64)


@dataclass(frozen=True)
class _OneRoundTables:
    """Receiver-sequence partition and single-letter laws for one-round runs."""

    all_yr: np.ndarray          # (|Yr|^n, n)
    bin_of: np.ndarray          # public bin per sequence (overflow = num_bins)
    sub_of: np.ndarray          # key sub-bin per sequence
    num_bins: int
    num_subbins: int
    p_yr_xs: np.ndarray         # p(yr, (x, s)) single-letter
    key_rate_target: float


def _one_round_tables(channel: StateChannel, policy: InputPolicy,
                      cfg: SimConfig) -> _OneRoundTables:
    # Fail before any enumeration: a one-round run always attaches exact leakage.
    _check_atoms((channel.yr_size ** cfg.n) * (channel.ye_size ** cfg.n), "reduce n")
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
    all_yr = _enumerate_sequences(channel.yr_size, cfg.n)
    p_yr = joint.probs.sum(axis=(0, 1, 3))
    counts = np.stack([(all_yr == v).sum(axis=1) for v in range(channel.yr_size)],
                      axis=1)
    typ_idx = np.flatnonzero(_typical_mask(counts, p_yr, n, cfg.epsilon))
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
                           p_yr_xs=p_yr_xs, key_rate_target=max(0.0, key_exponent))


def _reconstruct(tables: _OneRoundTables, channel: StateChannel,
                 x_seq: np.ndarray, s_seq: np.ndarray, published_bin: int,
                 epsilon: float) -> int | None:
    """Unique member of the published bin jointly typical with (x, s)."""
    members = np.flatnonzero(tables.bin_of == published_bin)
    if members.size == 0:
        return None
    counts = _joint_counts_rows(tables.all_yr[members],
                                x_seq * channel.s_size + s_seq, *tables.p_yr_xs.shape)
    hits = np.flatnonzero(_typical_mask(counts, tables.p_yr_xs, len(x_seq),
                                        epsilon))
    if hits.size != 1:
        return None
    return int(members[hits[0]])


def one_round_exact_leakage(tables: _OneRoundTables, channel: StateChannel,
                            policy: InputPolicy, cfg: SimConfig) -> float:
    """Exact I(K; Ye^n, public bin) / n for the one-round scheme.

    Uses the factorization of (Yr^n, Ye^n) into an i.i.d. per-symbol joint
    (x and s are marginalized per symbol), so the enumeration cost is
    |Yr|^n * |Ye|^n atoms, which ``_one_round_tables`` has checked.
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
    through ``encode_failure_rate``.
    """
    tables = _one_round_tables(channel, policy, cfg)
    n = cfg.n
    state_cdf = np.cumsum(channel.state_pmf)[None, :].repeat(n, axis=0)
    x_cdf = np.cumsum(policy.x_given_s, axis=1)
    powers = channel.yr_size ** np.arange(n - 1, -1, -1)
    disagreements = 0
    recon_failures = 0
    unique_lookups = 0
    unique_correct = 0
    key_counts = np.zeros(tables.num_subbins)
    for t in range(cfg.trials):
        rng = _rng_stream(cfg.seed, 1, t)
        s_seq = _sample_rows(state_cdf, rng)
        x_seq = _sample_rows(x_cdf[s_seq], rng)
        yr_seq, _ = transmit(channel, x_seq, s_seq, rng)
        yr_index = int((yr_seq * powers).sum())
        published = int(tables.bin_of[yr_index])
        receiver_key = int(tables.sub_of[yr_index])
        key_counts[receiver_key] += 1
        recon = _reconstruct(tables, channel, x_seq, s_seq, published,
                             cfg.epsilon)
        if recon is None:
            recon_failures += 1
            disagreements += 1
            continue
        unique_lookups += 1
        if recon == yr_index:
            unique_correct += 1
        if int(tables.sub_of[recon]) != receiver_key:
            disagreements += 1
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
