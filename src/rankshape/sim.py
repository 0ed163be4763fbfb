"""A desk-scale subspace bandit whose hidden-state geometry makes rank
collapse observable in seconds.

The environment draws a random orthogonal frame, reserves the first few
directions as a bias subspace, and builds a vocabulary of unit token
directions: most live entirely inside the bias subspace, a minority carry
most of their norm in the orthogonal complement, tilted toward a hidden
target direction. A rollout samples tokens i.i.d. from a softmax policy
and accumulates states through a leaky recurrence, so the trajectory's
effective rank directly reflects how many directions the policy still
visits. A rollout is correct when the final state points far enough along
the hidden target. Training is plain group-normalized REINFORCE on the
logits, with the correctness-gated rank reward from the rewards module.
"""

from __future__ import annotations

import functools
import sys
from collections.abc import Sized
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GroupSizeError, InputError, RangeError
from .io import RunConfig, _records, text_lines
# group_advantages, total_reward and windowed_min_effrank are not called
# here, but perfbench/spans.py traces them under rankshape.sim, so the
# names must keep resolving in this module.
from .rewards import _advantages, _gated, check_alpha, group_advantages, total_reward  # noqa: F401
from .spectral import (_check_int, _check_memory, _check_real, _check_sequence, _erank_stack,
                       _finite_array, entropy_rows)
from .windows import _min_norm, _window_eranks, _window_plan, windowed_min_effrank  # noqa: F401

# Null tokens put this fraction range of their norm in the complement and
# scatter around the target with this much unit-sphere spread. Chosen so
# correctness is reachable from the complement (projections on the target
# stay well above typical tau) while the null directions remain distinct
# enough that spreading over them raises effective rank.
NULL_MASS_RANGE = (0.85, 0.98)
TARGET_SPREAD = 0.5

# train draws the uniforms of as many iterations at a time as fit in this
# many floats (64 KiB), and _uniforms computes this many (generator, draw)
# pairs at a time (16 KiB per uint64 temporary), so drawing adds little to
# a run's peak memory. Drawing the default run as one 1 MiB block raised a
# 37 MiB collapse benchmark worker's peak RSS by 2 MiB to save 7 ms of a
# 350 ms run (2-core Xeon VM, numpy 2.4).
UNIFORM_BLOCK = 2**13
_DRAW_CHUNK = 2**11

# numpy's SeedSequence hash constants and the PCG64 multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MUL = 2549297995355413924 << 64 | 4865540595714422341
_LOW32 = np.uint64(0xFFFFFFFF)


@dataclass(frozen=True)
class EnvSpec:
    """Geometry and dynamics of one subspace bandit instance."""

    d: int
    vocab: int
    n_null: int
    directions: np.ndarray  # (vocab, d) unit rows; bias tokens first
    bias_basis: np.ndarray  # (d, bias_dim) orthonormal columns
    u_star: np.ndarray      # unit target, orthogonal to the bias subspace
    tau: float
    horizon: int
    decay: float

    @property
    def n_bias(self) -> int:
        return self.vocab - self.n_null


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise InputError("cannot normalize a zero vector")
    return v / norm


def build_env(seed: int, d: int = RunConfig.dim, vocab: int = RunConfig.vocab,
              bias_dim: int = RunConfig.bias_dim, n_null: int = RunConfig.null_tokens,
              tau: float = RunConfig.tau, horizon: int = RunConfig.horizon,
              decay: float = RunConfig.decay) -> EnvSpec:
    """Deterministically construct the bandit geometry for a seed.

    The orthogonal frame comes from the QR of a seeded Gaussian matrix;
    its first bias_dim columns span the bias subspace, the rest the
    complement holding the target u_star. The same seed gives a
    bit-identical environment. The sizes must be integers. A d x d frame
    and vocab x d direction table the host cannot hold are refused before
    anything is drawn.
    """
    _check_int(seed, "seed", low=0)
    d = _check_int(d, "d", low=2)
    vocab = _check_int(vocab, "vocab", low=2)
    bias_dim = _check_int(bias_dim, "bias_dim", 1, d - 1)
    n_null = _check_int(n_null, "n_null", 1, vocab - 1)
    horizon = _check_int(horizon, "horizon", low=1)
    decay = _check_real(decay, "decay", low=0, below=1)
    tau = _check_real(tau, "tau", above=0, high=1)
    _check_memory(d * (d + vocab), f"dimension {d} needs",
                  f"for its {d} x {d} frame and {vocab} x {d} direction table")

    rng = np.random.default_rng(seed)
    frame, _ = np.linalg.qr(rng.normal(size=(d, d)))
    bias_basis = frame[:, :bias_dim]
    null_basis = frame[:, bias_dim:]
    u_star = null_basis @ _unit(rng.normal(size=d - bias_dim))

    n_bias = vocab - n_null
    directions = np.empty((vocab, d))
    for i in range(n_bias):
        directions[i] = bias_basis @ _unit(rng.normal(size=bias_dim))
    for i in range(n_bias, vocab):
        in_bias = bias_basis @ _unit(rng.normal(size=bias_dim))
        tilt = null_basis @ rng.normal(size=d - bias_dim)
        in_null = _unit(u_star + TARGET_SPREAD * _unit(tilt))
        mass = rng.uniform(*NULL_MASS_RANGE)
        directions[i] = np.sqrt(1.0 - mass * mass) * in_bias + mass * in_null
    return EnvSpec(d=d, vocab=vocab, n_null=n_null, directions=directions,
                   bias_basis=bias_basis, u_star=u_star, tau=tau, horizon=horizon, decay=decay)


@dataclass
class PolicyParams:
    """Softmax policy over tokens: probs = softmax(logits). A sharper or
    flatter policy is one with scaled logits."""

    logits: np.ndarray

    def __post_init__(self):
        self.logits = _finite_array(self.logits, "logits", 1)

    def probs(self) -> np.ndarray:
        return _softmax(self.logits)

    def entropy(self) -> float:
        return float(entropy_rows(self.probs()))

    def copy(self) -> "PolicyParams":
        return PolicyParams(logits=self.logits.copy())


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def biased_init(env: EnvSpec, offset: float = RunConfig.bias_logit) -> PolicyParams:
    """Policy concentrated on the bias subspace: bias-token logits get +offset."""
    logits = np.zeros(env.vocab)
    logits[: env.n_bias] = _check_real(offset, "offset")
    return PolicyParams(logits=logits)


@dataclass(frozen=True)
class Rollout:
    """One sampled trajectory and its verdict."""

    tokens: np.ndarray
    states: np.ndarray  # (horizon, d)
    correct: bool


def _check_draws(draws: int, env: EnvSpec, at_least: bool = False) -> None:
    """Refuse a group of draws whose float64 states alone exceed the host's
    physical memory, before anything is drawn. ``at_least`` marks draws as
    a lower bound, for a group too long for len."""
    _check_memory(draws * env.horizon * env.d,
                  f"{'at least ' * at_least}{draws} draws of horizon {env.horizon} and "
                  f"dimension {env.d} need", "of states")


def _entropy_words(entropy) -> list[int]:
    """numpy's uint32 words of SeedSequence entropy: a non-negative integer as
    its little-endian words (0 is one word), a list or tuple as its items'
    words in turn."""
    if isinstance(entropy, (list, tuple)):
        return [word for item in entropy for word in _entropy_words(item)]
    n = _check_int(entropy, "seed", low=0)
    return [n >> 32 * k & 0xFFFFFFFF for k in range(max(1, -(-n.bit_length() // 32)))]


def _seed_words(seed) -> list[int]:
    """The entropy words that default_rng(seed) hashes, for a seed the drawer
    reproduces: a non-negative integer or a list or tuple of them, or a
    SeedSequence of either with the default pool size and no spawn key."""
    if not isinstance(seed, np.random.SeedSequence):
        return _entropy_words(seed)
    if seed.pool_size != 4 or seed.spawn_key:
        raise InputError(f"a SeedSequence seed needs pool_size 4 and no spawn_key, got "
                         f"{seed.pool_size} and {seed.spawn_key}")
    return _entropy_words(seed.entropy)


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The first count (current, next) constants, init * mult**k mod 2**32, that
    SeedSequence's hashmix steps through, each as a (count, 1) uint32 column."""
    h = np.uint32(init) * np.power(np.uint32(mult), np.arange(count + 1, dtype=np.uint32))
    return h[:-1, None], h[1:, None]


def _hashmix(value: np.ndarray, h: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 words under the hash constants h, nxt."""
    value = (value ^ h) * nxt
    return value ^ value >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 words."""
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> np.uint32(16)


def _mul128(a, b):
    """a * b mod 2**128 on (high, low) uint64 halves. The high 64 bits of
    a_lo * b_lo come from 32-bit limbs."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    s = np.uint64(32)
    a0, a1, b0, b1 = a_lo & _LOW32, a_lo >> s, b_lo & _LOW32, b_lo >> s
    cross0, cross1 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> s) + (cross0 & _LOW32) + (cross1 & _LOW32)
    carry = a1 * b1 + (cross0 >> s) + (cross1 >> s) + (mid >> s)
    return a_hi * b_lo + a_lo * b_hi + carry, a_lo * b_lo


@functools.lru_cache(maxsize=8)
def _jumps(horizon: int) -> np.ndarray:
    """The factors of _uniforms' draws 1..horizon, M**(t + 1) and 1 + M + ...
    + M**(t + 1) mod 2**128 for t < horizon, as a read-only (4, horizon)
    uint64 array. Cached, since a run draws every block at one horizon."""
    jumps, power, total = [], _PCG_MUL, 1 + _PCG_MUL
    for _ in range(horizon):
        power, total = power * _PCG_MUL % 2**128, (total * _PCG_MUL + 1) % 2**128
        jumps.append([power >> 64, power & 2**64 - 1, total >> 64, total & 2**64 - 1])
    jumps = np.array(jumps, dtype=np.uint64).T  # the two factors, as (high, low) rows
    jumps.flags.writeable = False
    return jumps


def _uniforms(words: np.ndarray, horizon: int) -> np.ndarray:
    """default_rng(SeedSequence(row)).random(horizon) for each row of an (N, n)
    uint32 entropy-word array, bit for bit, all N generators at once.

    SeedSequence hashes the words into a 4-word pool (words past the fourth
    take its second mixing loop) and generate_state(4, uint64) gives s0..s3.
    PCG64 sets inc = (s2:s3 << 1) | 1, steps once from 0, adds s0:s1 and steps
    again. Each draw is a 128-bit LCG step (state * M + inc), the XSL-RR
    output x of the new state, and (x >> 11) * 2**-53. The state after draw
    t is computed directly, M**(t + 1) * s0:s1 + (1 + M + ... + M**(t + 1)) *
    inc mod 2**128, for a chunk of draws at a time.
    """
    count, given = words.shape
    n = max(4, given)  # a missing pool word hashes as 0
    words = np.concatenate([words.T, np.zeros((n - given, count), np.uint32)])
    h, nxt = _hash_consts(_INIT_A, _MULT_A, 4 * n)
    pool = _hashmix(words[:4], h[:4], nxt[:4])
    for src in range(4):  # pool[src] is unchanged while it mixes into the others
        dst, k = [d for d in range(4) if d != src], slice(4 + 3 * src, 7 + 3 * src)
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h[k], nxt[k]))
    for src in range(4, n):
        k = slice(4 * src, 4 * src + 4)
        pool = _mix(pool, _hashmix(words[src], h[k], nxt[k]))
    state = _hashmix(np.tile(pool, (2, 1)), *_hash_consts(_INIT_B, _MULT_B, 8))
    s0, s1, s2, s3 = (state[0::2] | state[1::2].astype(np.uint64) << np.uint64(32))[:, :, None]
    one = np.uint64(1)
    inc = (s2 << one | s3 >> np.uint64(63), s3 << one | one)
    jumps = _jumps(horizon)
    out = np.empty((count, horizon))
    width = max(1, _DRAW_CHUNK // count)
    for t in range(0, horizon, width):
        cols = slice(t, t + width)
        (a_hi, a_lo), (b_hi, b_lo) = (_mul128((s0, s1), jumps[:2, cols]),
                                      _mul128(inc, jumps[2:, cols]))
        lo = a_lo + b_lo
        hi = a_hi + b_hi + (lo < b_lo)
        x, rot = hi ^ lo, hi >> np.uint64(58)
        out[:, cols] = (x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))) >> np.uint64(11)
    out *= 2.0**-53
    return out


def _check_policy(policy: PolicyParams, env: EnvSpec) -> None:
    """Refuse a policy whose logits do not match the vocabulary."""
    if policy.logits.size != env.vocab:
        raise InputError(
            f"policy has {policy.logits.size} logits for a {env.vocab}-token vocabulary")


def sample_group(policy: PolicyParams, env: EnvSpec, seeds):
    """Sample one rollout per seed and run the group's state recurrences together.

    ``seeds`` is a sequence or an iterator, not a bare scalar; an iterator
    is read into a list. A group whose states would exceed the host's
    physical memory is refused before any seed is checked. Each seed is a
    non-negative integer (Python or numpy) or a list or tuple of them, or a
    SeedSequence whose entropy is one of those, with the default pool size
    and no spawn key. Anything else, such as a Generator, a negative or
    bool seed or a spawned SeedSequence, is an InputError. Rollout i draws
    the horizon uniforms that default_rng(seed i).random(horizon) would, so
    it does not depend on the rest of the group. The uniforms come from
    rankshape's own SeedSequence/PCG64 code (_uniforms), which a test pins
    to numpy's bits; _sample maps them to tokens, states and verdicts.

    Returns (tokens, states, correct) with shapes (G, horizon),
    (G, horizon, d) and (G,).
    """
    _check_policy(policy, env)
    seeds = _check_sequence(seeds, "seeds")
    seeds = seeds if isinstance(seeds, Sized) else list(seeds)
    try:
        draws, at_least = len(seeds), False
    except OverflowError:  # a sized group past sys.maxsize, such as a long range
        draws, at_least = sys.maxsize + 1, True
    _check_draws(draws, env, at_least)
    words = [_seed_words(seed) for seed in seeds]
    if not words:
        raise InputError("cannot sample an empty group: no seeds given")
    u = np.empty((len(words), env.horizon))
    for n in set(map(len, words)):
        rows = [i for i, w in enumerate(words) if len(w) == n]
        u[rows] = _uniforms(np.array([words[i] for i in rows], dtype=np.uint32), env.horizon)
    return _sample(policy.probs(), env, u)


def _sample(p: np.ndarray, env: EnvSpec, u: np.ndarray):
    """The rollouts whose uniforms are the rows of the (G, horizon) array u,
    under the token probabilities p.

    Tokens come from the policy's inverse CDF: one searchsorted maps the
    block of uniforms to token ids. This is what Generator.choice(vocab,
    p=probs) does inside, so the tokens equal its draws, draw for draw. The
    leaky recurrence then runs time-major in a (horizon, G, d) array of the
    tokens' directions that it builds, one contiguous (G, d) group state
    per step.
    Correctness: the normalized final state's projection on u_star reaches
    tau.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    tokens = cdf.searchsorted(u, side="right")
    steps = env.directions[tokens.T]
    for prev, cur in zip(steps, steps[1:]):
        cur += env.decay * prev
    states = np.ascontiguousarray(steps.swapaxes(0, 1))
    final = states[:, -1]
    norm = np.linalg.norm(final, axis=-1)
    cosine = (final @ env.u_star) / np.where(norm > 0.0, norm, 1.0)
    correct = (norm > 0.0) & (cosine >= env.tau)
    return tokens, states, correct


def rollout(policy: PolicyParams, env: EnvSpec, seed) -> Rollout:
    """sample_group for the single seed ``seed``."""
    tokens, states, correct = sample_group(policy, env, [seed])
    return Rollout(tokens=tokens[0], states=states[0], correct=bool(correct[0]))


def _checked_group(logits, scale, token_seqs, advantages):
    """The one check of the group step: a finite logit vector and a finite
    scale whose product is finite too, a (G, T) integer token array with ids
    in [0, vocab), and exactly G finite advantages. Returns the scale as a
    float, scale * logits, the tokens, and the advantages as a float64 array."""
    logits = _finite_array(logits, "logits", 1)
    scale = _check_real(scale, "scale")
    with np.errstate(over="ignore"):
        z = scale * logits
    if not np.isfinite(z).all():
        raise InputError(f"scale {scale} times the logits overflows the float range")
    try:
        tokens = np.asarray(token_seqs)
    except ValueError:  # numpy refuses ragged sequences
        raise InputError("a group's token sequences must all have the same length") from None
    a = _finite_array(advantages, "advantages", 1)
    if (tokens.ndim != 2 or not np.issubdtype(tokens.dtype, np.integer)
            or a.shape != tokens.shape[:1]):
        raise InputError(f"need a (G, T) integer token array and G advantages, got "
                         f"{tokens.dtype} tokens of shape {tokens.shape}, advantages {a.shape}")
    if np.any(tokens < 0) or np.any(tokens >= z.size):
        raise InputError(f"token ids must be in [0, {z.size})")
    return scale, z, tokens, a


def _token_counts(tokens: np.ndarray, vocab: int) -> np.ndarray:
    """Each rollout's token counts, (G, vocab), of a (G, T) integer token
    array with ids in [0, vocab)."""
    G = tokens.shape[0]
    # Offsetting row i's ids by i * vocab counts every rollout in one bincount.
    ids = tokens.astype(np.intp, copy=False) + vocab * np.arange(G)[:, None]
    return np.bincount(ids.ravel(), minlength=G * vocab).reshape(G, vocab)


def weighted_log_prob(logits, scale: float, token_seqs, advantages) -> float:
    """sum_i A_i * log pi(tokens_i) with the advantages held fixed, over a
    group given as a (G, T) token array and G advantages. A sum past the
    float range is an InputError."""
    _, z, tokens, a = _checked_group(logits, scale, token_seqs, advantages)
    with np.errstate(over="ignore", invalid="ignore"):
        z -= z.max()  # the log-softmax, which stays finite where softmax underflows to 0
        # Each rollout sums its drawn tokens only, so an undrawn one at -inf adds
        # nothing, and a rollout with advantage 0 adds nothing even if it drew one.
        per_rollout = (z - np.log(np.exp(z).sum()))[tokens].sum(axis=1)
        weighted = float(np.sum(np.where(a != 0, a * per_rollout, 0.0)))
    if not np.isfinite(weighted):
        raise InputError("the weighted log-probability overflows the float range")
    return weighted


def policy_gradient(logits, scale: float, token_seqs, advantages) -> np.ndarray:
    """Gradient of weighted_log_prob with respect to the logits, over a
    group given as a (G, T) token array and G advantages.

    For i.i.d. softmax sampling this is scale * sum_i A_i (counts_i - T * p).
    A gradient past the float range is an InputError.
    """
    scale, z, tokens, a = _checked_group(logits, scale, token_seqs, advantages)
    with np.errstate(over="ignore", invalid="ignore"):
        grad = scale * _gradient(_token_counts(tokens, z.size), a, tokens.shape[1] * _softmax(z))
    if not np.isfinite(grad).all():
        raise InputError("the policy gradient overflows the float range")
    return grad


def _gradient(counts: np.ndarray, a: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """sum_i A_i (counts_i - expected_i): policy_gradient at scale 1, given
    each rollout's expected counts T * p."""
    return (a[:, None] * (counts - expected)).sum(axis=0)


@dataclass(frozen=True)
class SimTrace:
    """Per-iteration training metrics plus the policy they ended with.

    Metrics are recorded before each update, so row 0 describes the
    initial policy.
    """

    iteration: np.ndarray
    mean_windowed_erank: np.ndarray
    success_rate: np.ndarray
    mean_reward: np.ndarray
    policy_entropy: np.ndarray
    final_policy: PolicyParams | None = None

    COLUMNS = (("iteration", int), ("mean_windowed_erank", float), ("success_rate", float),
               ("mean_reward", float), ("policy_entropy", float))
    CSV_HEADER = ",".join(name for name, _ in COLUMNS)

    def __len__(self) -> int:
        return int(self.iteration.size)

    def to_csv(self, path) -> None:
        columns = [getattr(self, name) for name, _ in self.COLUMNS]
        lines = [self.CSV_HEADER]
        for row in zip(*columns):
            lines.append(",".join(repr(typ(v)) for (_, typ), v in zip(self.COLUMNS, row)))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def from_csv(cls, path) -> "SimTrace":
        """The trace a CSV holds: the header line, then one row per line, each
        read by the one line-error rule (io._records) as "<path> line N"."""
        lines = text_lines(path)
        if next(lines, "").strip() != cls.CSV_HEADER:
            raise InputError(f"not a trace CSV (bad header): {path}")
        rows = list(_records(lines, cls._row, f"{path} line", first=2))
        if not rows:
            raise InputError(f"malformed trace CSV, no rows: {path}")
        return cls(*map(np.array, zip(*rows)))

    @classmethod
    def _row(cls, line: str) -> list:
        """One trace row: a field for each column, as that column's type."""
        fields = line.split(",")
        if len(fields) != len(cls.COLUMNS):
            raise InputError(f"has {len(fields)} fields, expected {len(cls.COLUMNS)}")
        return [typ(x) for (_, typ), x in zip(cls.COLUMNS, fields)]


def train(env: EnvSpec, init_policy: PolicyParams, alpha: float,
          group_size: int = RunConfig.group_size, iterations: int = RunConfig.iterations,
          learning_rate: float = RunConfig.learning_rate, seed: int = RunConfig.train_seed,
          window: int = RunConfig.window, stride: int = RunConfig.stride) -> SimTrace:
    """Group-normalized REINFORCE on the logits with the rank-aware reward.

    Each iteration samples a group of group_size rollouts (sub-seeded from
    seed and the iteration index, so runs are bit-reproducible), scores
    them with the gated rank reward at this alpha, standardizes within the
    group, and ascends the advantage-weighted log-probability. No KL term,
    no clipping, no baseline beyond the group mean. Every argument is
    checked once, before the first draw; the one training loop,
    _iterations, then runs on the checked arguments, and train keeps each
    iteration's group means.
    """
    _check_int(seed, "seed", low=0)
    alpha = check_alpha(alpha)
    _check_policy(init_policy, env)
    group_size = _check_int(group_size, "group_size", low=2, error=GroupSizeError)
    iterations = _check_int(iterations, "iterations", low=1)
    learning_rate = _check_real(learning_rate, "learning_rate", low=0)
    starts, w, r_max = _window_plan(env.horizon, env.d, window, stride)
    _check_draws(group_size, env)
    # Each index is one uint32 entropy word.
    _check_int(max(iterations, group_size), "iterations and group_size", high=2**32)

    logits = init_policy.copy().logits
    # The group means, in the operations of x.mean().
    rows = [(min_eranks.sum() / group_size, np.count_nonzero(correct) / group_size,
             rewards.sum() / group_size, entropy_rows(p)) for p, correct, min_eranks, rewards
            in _iterations(env, logits, alpha, group_size, iterations, learning_rate, seed,
                           np.asarray(starts), w, r_max)]
    return SimTrace(np.arange(iterations), *np.array(rows).T, final_policy=PolicyParams(logits))


def _iterations(env: EnvSpec, logits: np.ndarray, alpha: float, group_size: int, iterations: int,
                learning_rate: float, seed: int, starts: np.ndarray, w: int, r_max: int):
    """The one training loop, on arguments train has checked and its window
    plan (_window_plan) with the starts as an integer array. For each
    iteration it yields the group's token probabilities p, verdicts,
    min_eranks and gated rewards, then ascends ``logits`` in place, so a
    record describes the policy before its update. It runs the unchecked
    cores of sample_group, stacked_min_effrank, gated_rewards,
    group_advantages and policy_gradient on the arrays it builds, and
    checks only that each update leaves the logits finite."""
    # Rollout i of iteration it draws as SeedSequence([seed, it, i]) would,
    # a block of iterations at a time.
    block = max(1, UNIFORM_BLOCK // (group_size * env.horizon))
    prefix = _entropy_words(seed)
    for it in range(iterations):
        if it % block == 0:
            rollouts = np.arange(it * group_size, min(it + block, iterations) * group_size)
            words = np.column_stack([np.tile(prefix, (rollouts.size, 1)),
                                     *np.divmod(rollouts, group_size)]).astype(np.uint32)
            u = _uniforms(words, env.horizon).reshape(-1, group_size, env.horizon)
        p = _softmax(logits)
        tokens, states, correct = _sample(p, env, u[it % block])
        min_eranks, norm_ranks = _min_norm(_window_eranks(states, starts, w), r_max)
        rewards = _gated(correct, norm_ranks, alpha)
        yield p, correct, min_eranks, rewards

        # Each rollout's token counts sum to the horizon.
        grad = _gradient(_token_counts(tokens, env.vocab), _advantages(rewards), env.horizon * p)
        with np.errstate(over="ignore"):
            logits += learning_rate * grad
        if not np.isfinite(logits).all():
            raise InputError(f"logits must be finite: learning_rate {learning_rate} "
                             "overflowed them")


@dataclass(frozen=True)
class SweepResult:
    """Mean full-trajectory effective rank per logit scale, in the order of
    the scales swept."""

    mean_erank: tuple[float, ...]
    std_error: tuple[float, ...]


def temperature_sweep(policy: PolicyParams, env: EnvSpec, scales,
                      samples_per_scale: int, seed: int = 0) -> SweepResult:
    """Monte Carlo effective-rank estimate at each concentration scale.

    Scales multiply the logits; they must be positive and ascending.
    Sharper policies visit fewer directions, so the estimated mean rank
    should fall (within sampling noise) as the scale grows.
    """
    _check_int(seed, "seed", low=0)
    scales = [_check_real(s, "scale", above=0) for s in _check_sequence(scales, "scales")]
    if not scales or any(b <= a for a, b in zip(scales, scales[1:])):
        raise InputError(f"scales must be one or more, strictly ascending, got {scales}")
    samples_per_scale = _check_int(samples_per_scale, "samples_per_scale", low=1, error=RangeError)
    _check_draws(samples_per_scale, env)
    means = []
    errors = []
    for j, s in enumerate(scales):
        _, states, _ = sample_group(
            PolicyParams(s * policy.logits), env,
            [[seed, j, i] for i in range(samples_per_scale)])
        values = _erank_stack(states)
        means.append(float(values.mean()))
        errors.append(float(values.std(ddof=1) / np.sqrt(samples_per_scale))
                      if samples_per_scale > 1 else 0.0)
    return SweepResult(mean_erank=tuple(means), std_error=tuple(errors))


def geometric_barrier_probe(policy: PolicyParams, env: EnvSpec, delta: float,
                            samples: int, seed: int = 0) -> float:
    """Monte Carlo P(||null-space component of the final state|| > delta).

    Near zero for policies trapped in the bias subspace; rises once the
    policy routes mass through complement-heavy tokens.
    """
    _check_int(seed, "seed", low=0)
    delta = _check_real(delta, "delta", above=0, error=RangeError)
    samples = _check_int(samples, "samples", low=1, error=RangeError)
    _check_draws(samples, env)
    _, states, _ = sample_group(policy, env, [[seed, i] for i in range(samples)])
    final, B = states[:, -1].T, env.bias_basis  # one column per sample
    escaped = np.linalg.norm(final - B @ (B.T @ final), axis=0) > delta  # outside the bias span
    return int(escaped.sum()) / samples
