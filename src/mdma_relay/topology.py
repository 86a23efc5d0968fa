"""Node geometry, unit conversions and per-link fading parameters.

Everything downstream (closed-form analysis and the slot simulator) works in
linear SNR units: a link at distance d with path-loss exponent alpha carries
an exponentially distributed instantaneous SNR with mean snr * d**-alpha,
i.e. with rate d**alpha / snr.  The dBm-to-linear conversion happens once,
here, and so does the one law every layer derives from those rates: a link
misses the decoding threshold g with probability 1 - exp(-rate * g).
`link_rates` returns both sources' rates with that law applied to every
source-relay link and direct link, and each source's chance that no relay
decodes it, one `LinkSet` per run.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, asdict, fields

import numpy as np

Coord = tuple[float, float]
# Bins per threshold interval, checked as input.  Past 4 095 bins the relay
# step is exact and no printed number depends on the value.
MAX_GRANULARITY = 1_000_000


class ConfigError(ValueError):
    """Invalid system configuration."""


class DegenerateGeometryError(ConfigError):
    """A transmitter/receiver pair sits at zero distance."""


def is_number(v) -> bool:
    """True for a real number; a bool, which JSON's `true` becomes, and a
    string are not numbers here."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def is_whole(v) -> bool:
    """True for an int or a finite float with no fractional part, not a bool."""
    return is_number(v) and (isinstance(v, numbers.Integral) or (math.isfinite(v) and float(v).is_integer()))


def fits_float(v) -> bool:
    """False for an int too large for a float; JSON reads any integer exactly."""
    try:
        float(v)
    except OverflowError:
        return False
    return True


def _as_coord(p) -> Coord:
    """A point from exactly two finite real numbers: a string, which would
    unpack into its digits, a bool and a third entry are refused, not read."""
    try:
        x, y = p
    except (TypeError, ValueError):
        x = y = None
    if not all(is_number(v) and fits_float(v) and math.isfinite(v) for v in (x, y)):
        raise ConfigError(f"a coordinate must be two finite real numbers, got {p!r}")
    return (float(x), float(y))


def euclidean(a: Coord, b: Coord) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


@dataclass(frozen=True)
class NetworkTopology:
    """Positions of the two sources, the relays and the destination.

    Coordinates are unitless lengths; mean link gains are d**-alpha.
    ``link_distances`` holds every link's length, measured once, as the
    topology is built.
    """

    s1_pos: Coord
    s2_pos: Coord
    d_pos: Coord
    relay_pos: tuple[Coord, ...]
    alpha: float = 3.0

    def __post_init__(self):
        object.__setattr__(self, "s1_pos", _as_coord(self.s1_pos))
        object.__setattr__(self, "s2_pos", _as_coord(self.s2_pos))
        object.__setattr__(self, "d_pos", _as_coord(self.d_pos))
        object.__setattr__(
            self, "relay_pos", tuple(_as_coord(r) for r in self.relay_pos)
        )
        if len(self.relay_pos) < 1:
            raise ConfigError("at least one relay is required")
        a = self.alpha
        if not (is_number(a) and fits_float(a) and math.isfinite(a) and a > 0):
            raise ConfigError(f"path-loss exponent must be a positive real number, got {a!r}")
        object.__setattr__(self, "alpha", float(a))
        # Measure every link the model uses, once (`link_rates` reads these
        # lengths), and reject any of zero length.
        s1, s2, dst = self.s1_pos, self.s2_pos, self.d_pos
        lengths = [euclidean(s1, dst), euclidean(s2, dst)]
        for r in self.relay_pos:
            lengths += (euclidean(s1, r), euclidean(s2, r), euclidean(r, dst))
        if min(lengths) <= 0.0:
            self._reject_coincident(lengths)
        per_relay = np.ascontiguousarray(np.reshape(lengths[2:], (-1, 3)).T)
        per_relay.flags.writeable = False
        object.__setattr__(self, "link_distances", LinkDistances(lengths[0], lengths[1], per_relay))

    @property
    def num_relays(self) -> int:
        return len(self.relay_pos)

    def _reject_coincident(self, lengths: list[float]):
        """Raise for the first link of zero length, in ``lengths``' order."""
        pairs = [("s1", self.s1_pos, "d"), ("s2", self.s2_pos, "d")]
        for i, r in enumerate(self.relay_pos, start=1):
            pairs += (("s1", self.s1_pos, f"r{i}"), ("s2", self.s2_pos, f"r{i}"), (f"r{i}", r, "d"))
        name_a, a, name_b = next(pair for pair, length in zip(pairs, lengths) if length <= 0.0)
        raise DegenerateGeometryError(f"nodes {name_a} and {name_b} are coincident at {a}")


@dataclass(frozen=True)
class LinkDistances:
    """All link distances the two-source relay network uses, as
    ``NetworkTopology.link_distances`` holds them (read-only arrays)."""

    s1_d: float
    s2_d: float
    per_relay: np.ndarray  # rows: source 1 to each relay, source 2 to each relay, each relay to destination


def _ceil_slots(bits: float, rate: float) -> int:
    # Guard the ceiling against float fuzz (0.7*10 -> 7.000000000000001).
    v = bits / rate
    return max(0, math.ceil(round(v, 9)))


@dataclass(frozen=True)
class SystemConfig:
    """Transmit/noise powers, rate target, payload split and resource units."""

    power_dbm: float = 10.0
    noise_dbm: float = -50.0
    rate_r0: float = 1.0
    total_bits: float = 10.0
    eta: float = 0.5
    granularity: int = 1000
    bandwidth_units: float = 1.0
    power_units: float = 1.0

    def __post_init__(self):
        names = [f.name for f in fields(self)]
        for name in names:
            v = getattr(self, name)
            if type(v) is float:  # the common case, and the ABC check below is slow
                continue
            # A JSON `true` would otherwise pass as the number 1.
            if not is_number(v):
                raise ConfigError(f"{name} must be a number, got {v!r}")
            if not fits_float(v):
                raise ConfigError(f"{name} is too large for a float")
        if not is_whole(self.granularity):
            raise ConfigError(f"granularity must be a whole number, got {self.granularity!r}")
        # A JSON 1000.0 is stored as 1000, so it bins and prints as 1000 does.
        object.__setattr__(self, "granularity", int(self.granularity))
        # Every comparison below is false for NaN, so it would pass them and
        # fail later under another name.  A NaN granularity is not whole.
        for name in names:
            if math.isnan(getattr(self, name)):
                raise ConfigError(f"{name} must not be NaN")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError(f"eta must lie in [0, 1], got {self.eta}")
        if self.rate_r0 <= 0:
            raise ConfigError("rate_r0 must be positive")
        if not 0 < self.total_bits < math.inf:
            raise ConfigError("total_bits must be positive and finite")
        if not 1 <= self.granularity <= MAX_GRANULARITY:
            raise ConfigError(f"granularity {self.granularity} is outside [1, {MAX_GRANULARITY}]")
        # Both efficiencies and the simulated one's standard error are at most
        # 2 / (bandwidth_units * power_units) (README, "Bad input"): a normal
        # product keeps that finite, with a factor of 2 to spare for rounding.
        if not (self.bandwidth_units > 0 and self.power_units > 0
                and self.bandwidth_units * self.power_units >= sys.float_info.min):
            raise ConfigError(f"bandwidth_units {self.bandwidth_units} and power_units {self.power_units} "
                              f"must be positive with a product of at least {sys.float_info.min:.4g}")
        if self.total_bits / self.rate_r0 == math.inf:
            raise ConfigError(f"total_bits {self.total_bits} over rate_r0 "
                              f"{self.rate_r0} overflows the slot count")
        if self.beta_s + self.beta_p < 1:
            raise ConfigError("payload requires at least one slot")
        try:
            snr = self.snr_linear()
        except OverflowError:
            raise ConfigError(
                f"power_dbm {self.power_dbm} over noise_dbm {self.noise_dbm} "
                "overflows the linear SNR"
            ) from None
        if snr == 0.0:
            raise ConfigError(
                f"power_dbm {self.power_dbm} over noise_dbm {self.noise_dbm} "
                "gives a linear SNR of 0"
            )
        try:
            self.gamma_th
        except OverflowError:
            raise ConfigError(
                f"rate_r0 {self.rate_r0} overflows the threshold 2**rate_r0 - 1"
            ) from None

    def snr_linear(self) -> float:
        """Transmit-power to noise ratio in linear units (inf if noiseless)."""
        if self.noise_dbm == -math.inf:
            return math.inf
        return 10.0 ** ((self.power_dbm - self.noise_dbm) / 10.0)

    @property
    def gamma_th(self) -> float:
        """Decoding SNR threshold 2**rate - 1."""
        return 2.0 ** self.rate_r0 - 1.0

    @property
    def beta_s(self) -> int:
        """Slots of shared payload per image pair."""
        return _ceil_slots(self.eta * self.total_bits, self.rate_r0)

    @property
    def beta_p(self) -> int:
        """Slots of personalized payload per source per image pair."""
        return _ceil_slots((1.0 - self.eta) * self.total_bits, self.rate_r0)

    @property
    def beta_t(self) -> int:
        """Slots of a source's whole payload (TDMA, FDMA, NOMA); at least 1, as beta_s + beta_p is."""
        return _ceil_slots(self.total_bits, self.rate_r0)


@dataclass(frozen=True, eq=False)
class LinkSet:
    """Both sources' links under one configuration, row s - 1 for source s:
    their exponential SNR rates, and the chance 1 - exp(-rate * g) that a
    link misses the decoding threshold g, for each relay hearing each source
    (``gates``) and for each direct link (``miss``).  Both laws are 0 at a
    zero threshold, where even an SNR of 0 decodes (and inf * 0 is NaN).
    ``empty`` is each source's chance that no relay decodes it, the product
    of its row of gates: 1 where every gate is closed."""

    direct: np.ndarray        # (2,) each source -> destination
    source_relay: np.ndarray  # (2, m) each source -> each relay
    relay_dest: np.ndarray    # (m,) each relay -> destination
    gates: np.ndarray         # (2, m) each relay fails to decode each source
    miss: np.ndarray          # (2,) each direct link's outage
    empty: np.ndarray         # (2,) every relay fails to decode each source


def link_rates(topology: NetworkTopology, config: SystemConfig, cooperate: bool = True) -> LinkSet:
    """Rates d**alpha/snr of both sources' links, their gates and direct
    misses, and each source's empty decode-set probability.  Without relay
    cooperation no relay hears a source: its source-relay rates are
    infinite, an SNR of 0, its gates 1 and its ``empty`` 1.  So is a
    link whose d**alpha overflows, but at infinite SNR every rate is 0: every
    link succeeds.  A relay-destination rate, then source 1's direct rate,
    then source 2's, that underflows to 0 at a finite SNR and a positive
    threshold, an infinite mean SNR, is refused for every command: MRC would
    add it times a relay that did not decode, inf * 0 = NaN."""
    d = topology.link_distances
    snr, g, a = config.snr_linear(), config.gamma_th, topology.alpha
    # The direct gains are scalar powers, libm's pow as Python's float power
    # is; numpy's vector power can differ from it in the last bit.  The three
    # per-relay rows are one vector power, which gives each row's own bits.
    with np.errstate(over="ignore"):
        gains = np.array([np.float64(d.s1_d) ** a, np.float64(d.s2_d) ** a]), d.per_relay ** a
        direct, per_relay = (x / snr if snr < math.inf else np.zeros_like(x) for x in gains)
    relay_dest = per_relay[2]
    if snr < math.inf and g > 0.0:
        if not relay_dest.min() > 0.0:
            raise ConfigError(f"rates must be positive, got {relay_dest}")
        for rate in direct.tolist():
            if not rate > 0.0:
                raise ConfigError(f"link rate must be positive, got {rate}")
    source_relay = per_relay[:2] if cooperate else np.full((2, topology.num_relays), math.inf)
    # The direct misses are scalar expm1, libm's, for the reason above.
    gates = -np.expm1(-source_relay * g) if g > 0.0 else np.zeros(source_relay.shape)
    miss = np.array([-math.expm1(-rate * g) if g > 0.0 else 0.0 for rate in direct])
    return LinkSet(direct, source_relay, relay_dest, gates, miss, gates.prod(axis=1))


def default_paper_setup(
    power_dbm: float = 10.0, eta: float = 0.5, granularity: int = 1000
) -> tuple[NetworkTopology, SystemConfig]:
    """The reference two-source, eight-relay layout used by the experiments.

    Sources at (20,20) and (0,20), destination at (100,0), relays on the
    x=50 line at heights 50 - 100*(i-0.5)/8 + 5, path-loss exponent 3,
    rate target 1 bit/s/Hz, 10-bit payloads, -50 dBm noise floor.
    """
    relays = tuple((50.0, 50.0 - 100.0 * (i - 0.5) / 8.0 + 5.0) for i in range(1, 9))
    topo = NetworkTopology(
        s1_pos=(20.0, 20.0),
        s2_pos=(0.0, 20.0),
        d_pos=(100.0, 0.0),
        relay_pos=relays,
        alpha=3.0,
    )
    cfg = SystemConfig(
        power_dbm=power_dbm,
        noise_dbm=-50.0,
        rate_r0=1.0,
        total_bits=10.0,
        eta=eta,
        granularity=granularity,
    )
    return topo, cfg


# ---------------------------------------------------------------------------
# Structured text (JSON) configuration files.
# ---------------------------------------------------------------------------

def topology_to_dict(topology: NetworkTopology) -> dict:
    return {
        "s1": list(topology.s1_pos),
        "s2": list(topology.s2_pos),
        "d": list(topology.d_pos),
        "relays": [list(r) for r in topology.relay_pos],
        "alpha": topology.alpha,
    }


def config_to_dict(config: SystemConfig) -> dict:
    return asdict(config)


def setup_from_dict(doc: dict) -> tuple[NetworkTopology, SystemConfig]:
    try:
        t = doc["topology"]
        topo = NetworkTopology(
            s1_pos=t["s1"],
            s2_pos=t["s2"],
            d_pos=t["d"],
            relay_pos=t["relays"],
            alpha=t.get("alpha", 3.0),
        )
        cfg = SystemConfig(**doc.get("system", {}))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed configuration document: {exc}") from exc
    return topo, cfg


def read_json(path, what: str):
    """Parse a JSON file; an unreadable or malformed file is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def load_setup(path) -> tuple[NetworkTopology, SystemConfig]:
    """Read a JSON configuration file with `topology` and `system` sections."""
    return setup_from_dict(read_json(path, "configuration"))


def save_setup(path, topology: NetworkTopology, config: SystemConfig) -> None:
    doc = {"topology": topology_to_dict(topology), "system": config_to_dict(config)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
