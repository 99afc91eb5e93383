"""Code parameterisation, Monte-Carlo construction and persistence.

A :class:`CodeSpec` is the full persisted identity of one code: which
scheme, the block lengths, the frozen set, the CRC, the design SNR and
the encoder variant.  Spec files (:func:`load_spec`) and ``hybridpolar``
configs both build one, read their numbers with :func:`parse_value` and
leave every check to :meth:`CodeSpec.validate`.  The frozen set is found
by Monte-Carlo ranking: random messages are pushed through the complete
encoding chain, transmitted over AWGN at the design SNR, and decoded by
a genie-aided successive cancellation pass in which every decision is
corrected to the truth right after its LLR is formed.  The first wrong
decision of each trial increments that bit position's error counter,
and the n-k-p positions with the highest counts are frozen (ties freeze
the lower index first).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import channel as _channel
from . import decoder as _decoder
from .galois import DEFAULT_PRIMITIVE_POLY, SUPPORTED_DEGREES, build_field

SCHEMES = ("hybrid", "polar_repetition")
ENCODER_VARIANTS = ("flat", "recursive")

DEFAULT_CONSTRUCTION_TRIALS = 100_000

# Most channel samples N = n*r in a frame, as many as the widest decodable n.
MAX_FRAME_SAMPLES = 1 << 24


@dataclass(frozen=True)
class CodeSpec:
    """All parameters identifying one code instance.

    ``frozen_set`` lives in the outer input vector u_0^{n-1} and has
    exactly n - k - p elements; the unfrozen positions carry the k
    information bits followed by the p CRC bits in ascending index
    order.  The reported rate k/N counts information bits only, and the
    channel block length N = n * r is derived, not stored.
    """

    scheme: str
    n: int
    k: int
    t: int
    r: int
    p: int
    crc_poly: int
    frozen_set: tuple
    design_snr: float
    primitive_poly: int = 0
    encoder_variant: str = "flat"

    def __post_init__(self):
        if self.primitive_poly == 0 and self.t in DEFAULT_PRIMITIVE_POLY:
            object.__setattr__(self, "primitive_poly", DEFAULT_PRIMITIVE_POLY[self.t])
        object.__setattr__(self, "frozen_set", tuple(sorted(int(i) for i in self.frozen_set)))
        self.validate()

    def validate(self) -> None:
        def fail(field_name, message):
            raise ValueError(f"invalid CodeSpec field {field_name!r}: {message}")

        if self.scheme not in SCHEMES:
            fail("scheme", f"must be one of {SCHEMES}")
        if self.n < 1 or self.n & (self.n - 1):
            fail("n", f"{self.n} is not a power of two")
        if self.n > _decoder.MAX_PATH_ENTRIES:
            fail("n", f"{self.n} exceeds the decoder's {_decoder.MAX_PATH_ENTRIES} LLRs per frame")
        if self.t not in SUPPORTED_DEGREES:
            fail("t", f"{self.t} not in {SUPPORTED_DEGREES}")
        if self.scheme == "polar_repetition" and self.t != 1:
            fail("t", f"the polar_repetition scheme is binary, so t must be 1, not {self.t}")
        if self.n % self.t or (self.n // self.t) & (self.n // self.t - 1):
            fail("t", f"n/t must be a power of two (n={self.n}, t={self.t})")
        if self.r < 1:
            fail("r", "needs at least one repetition")
        if self.N > MAX_FRAME_SAMPLES:
            fail("r", f"N = n*r = {self.N} exceeds {MAX_FRAME_SAMPLES} channel samples per frame")
        for name in ("k", "p", "crc_poly"):
            if getattr(self, name) < 0:
                fail(name, f"{getattr(self, name)} is negative")
        if self.k + self.p > self.n:
            fail("k", f"k+p = {self.k + self.p} exceeds n = {self.n}")
        if self.p > 0 and self.crc_poly.bit_length() != self.p + 1:
            fail("crc_poly", f"0x{self.crc_poly:x} does not have degree {self.p}")
        if len(self.frozen_set) != self.n - self.k - self.p:
            fail("frozen_set", f"expected {self.n - self.k - self.p} indices, "
                               f"got {len(self.frozen_set)}")
        if self.frozen_set and not (0 <= self.frozen_set[0] and self.frozen_set[-1] < self.n):
            fail("frozen_set", "indices out of range")
        if len(set(self.frozen_set)) != len(self.frozen_set):
            fail("frozen_set", "duplicate indices")
        if self.encoder_variant not in ENCODER_VARIANTS:
            fail("encoder_variant", f"must be one of {ENCODER_VARIANTS}")
        try:
            self.field_tables()
        except ValueError as exc:
            fail("primitive_poly", str(exc))

    @property
    def N(self) -> int:
        return self.n * self.r

    @property
    def rate(self) -> float:
        return self.k / self.N

    def frozen_mask(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        if self.frozen_set:
            mask[list(self.frozen_set)] = True
        return mask

    def unfrozen_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.frozen_mask())

    def field_tables(self):
        return build_field(self.t, self.primitive_poly)


def default_frozen_set(n: int, k: int, p: int) -> tuple:
    """Placeholder frozen set: the lowest n-k-p indices, at most n; none if validate refuses n."""
    valid = 0 < n <= _decoder.MAX_PATH_ENTRIES and not n & (n - 1)
    return tuple(range(min(n, n - k - p))) if valid else ()


# ---------------------------------------------------------------------------
# Monte-Carlo construction
# ---------------------------------------------------------------------------

def first_error_counts(params: CodeSpec, trials: int, seed: int) -> np.ndarray:
    """Per-position first-error counters from genie-aided SC trials.

    Each trial encodes a fully random u through the complete chain,
    transmits over AWGN at the design SNR and counts only the first
    wrong genie decision, so the counters sum to at most ``trials``.
    Trials are deterministic functions of (seed, trial index) and the
    counters aggregate by plain addition, so the result does not depend
    on the batch size.  Repetition coefficients stay fixed for the
    whole run (drawn once from the seed): they only permute symbol LLR
    vectors, which leaves the bit-channel ranking untouched.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cfg = _channel.ChannelConfig(kind="awgn", ebn0_db=params.design_snr,
                                 rate=params.rate)
    pinned = _channel.pinned_coefficients(params, seed)

    counts = np.zeros(params.n, dtype=np.int64)
    done = 0
    while done < trials:
        m = min(_decoder.frame_batch(params, 1, pinned=True), trials - done)
        rngs = [_channel.seeded_rng(seed, 0, done + j) for j in range(m)]
        u = np.stack([rng.integers(0, 2, size=params.n, dtype=np.int8) for rng in rngs])
        channel_input = _channel.transmit_frames(params, cfg, u, rngs, pinned)
        firsts = _decoder.genie_first_errors(params, channel_input, u)
        hits = firsts[firsts >= 0]
        counts += np.bincount(hits, minlength=params.n)
        done += m
    return counts


def monte_carlo_construct(params: CodeSpec, trials: int, seed: int) -> tuple:
    """Rank bit channels at the design SNR and return the frozen set.

    ``params.frozen_set`` is ignored during the ranking.  The n-k-p
    positions with the highest first-error counts are frozen; equal
    counts freeze the lower index first.
    """
    n_frozen = params.n - params.k - params.p
    if n_frozen == 0:
        return ()
    counts = first_error_counts(params, trials, seed)
    order = np.lexsort((np.arange(params.n), -counts))
    return tuple(sorted(int(i) for i in order[:n_frozen]))


def construct_code(params: CodeSpec, trials: int = DEFAULT_CONSTRUCTION_TRIALS,
                   seed: int = 0) -> CodeSpec:
    """Convenience wrapper returning a new CodeSpec with the ranked frozen set."""
    frozen = monte_carlo_construct(params, trials, seed)
    return dataclasses.replace(params, frozen_set=frozen)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_spec(spec: CodeSpec, path) -> None:
    """Write the spec as flat key/value text with an explicit frozen list."""
    lines = [
        f"scheme = {spec.scheme}",
        f"N = {spec.N}",
        f"n = {spec.n}",
        f"k = {spec.k}",
        f"t = {spec.t}",
        f"r = {spec.r}",
        f"p = {spec.p}",
        f"crc_poly = 0x{spec.crc_poly:x}",
        f"design_snr = {spec.design_snr!r}",
        f"primitive_poly = 0x{spec.primitive_poly:x}",
        f"encoder_variant = {spec.encoder_variant}",
        "frozen_set = " + ",".join(str(i) for i in spec.frozen_set),
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


SPEC_KEYS = ("scheme", "N", "n", "k", "t", "r", "p", "crc_poly", "design_snr",
             "primitive_poly", "encoder_variant", "frozen_set")


def read_key_values(path, allowed, kind: str) -> dict:
    """Read a flat ``key = value`` file into a dict of stripped strings.

    Blank lines and ``#`` comments are skipped.  A malformed line, a
    key outside ``allowed`` or a repeated key raises ValueError naming
    ``path:line``; ``kind`` names the file type in the message.
    """
    fields: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            if key not in allowed:
                raise ValueError(f"{path}:{lineno}: unknown {kind} key {key!r}")
            if key in fields:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            fields[key] = value.strip()
    return fields


def parse_value(path, key: str, text: str, kind: type = int):
    """Read ``text``, the value of ``key`` in the file ``path``, as an int or a float.

    Integers take any base a Python literal can (``0x43``).  A value that
    does not parse raises ValueError naming the file and the key.
    """
    try:
        return int(text, 0) if kind is int else kind(text)
    except ValueError:
        raise ValueError(f"{path}: {key} = {text!r} is not a valid {kind.__name__}") from None


def load_spec(path) -> CodeSpec:
    """Parse a saved spec, re-validating every invariant; an optional ``N`` line must be n*r."""
    fields = read_key_values(path, SPEC_KEYS, "spec")
    missing = set(SPEC_KEYS) - {"N"} - fields.keys()
    if missing:
        raise ValueError(f"spec file missing fields: {sorted(missing)}")

    def number(name, kind=int):
        return parse_value(path, name, fields[name], kind)

    spec = CodeSpec(
        scheme=fields["scheme"],
        n=number("n"),
        k=number("k"),
        t=number("t"),
        r=number("r"),
        p=number("p"),
        crc_poly=number("crc_poly"),
        frozen_set=tuple(parse_value(path, "frozen_set", tok)
                         for tok in fields["frozen_set"].split(",") if tok.strip()),
        design_snr=number("design_snr", float),
        primitive_poly=number("primitive_poly"),
        encoder_variant=fields["encoder_variant"],
    )
    if "N" in fields and number("N") != spec.N:
        raise ValueError(f"invalid CodeSpec field 'N': {fields['N']} != n*r = {spec.N}")
    return spec
