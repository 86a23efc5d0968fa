"""Node geometry, unit conversions and per-link fading parameters.

Everything downstream (closed-form analysis and the slot simulator) works in
linear SNR units: a link at distance d with path-loss exponent alpha carries
an exponentially distributed instantaneous SNR with mean snr * d**-alpha,
i.e. with rate d**alpha / snr.  The dBm-to-linear conversion happens once,
here.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, asdict, fields

import numpy as np

Coord = tuple[float, float]
# Bins per threshold interval; each analysis holds a few arrays of this length.
MAX_GRANULARITY = 1_000_000


class ConfigError(ValueError):
    """Invalid system configuration."""


class DegenerateGeometryError(ConfigError):
    """A transmitter/receiver pair sits at zero distance."""


def is_whole(v) -> bool:
    """True for an int or a finite float with no fractional part; a bool,
    which JSON's `true` becomes, is not a number here."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    return isinstance(v, numbers.Integral) or (math.isfinite(v) and float(v).is_integer())


def fits_float(v) -> bool:
    """False for an int too large for a float; JSON reads any integer exactly."""
    try:
        float(v)
    except OverflowError:
        return False
    return True


def _as_coord(p) -> Coord:
    x, y = float(p[0]), float(p[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ConfigError(f"non-finite coordinate: {p!r}")
    return (x, y)


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
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError(f"path-loss exponent must be positive, got {self.alpha}")
        # Measure every link the model uses, once (`link_rates` reads these
        # lengths), and reject any of zero length.
        pairs = [("s1", self.s1_pos, "d", self.d_pos), ("s2", self.s2_pos, "d", self.d_pos)]
        for i, r in enumerate(self.relay_pos, start=1):
            pairs.append(("s1", self.s1_pos, f"r{i}", r))
            pairs.append(("s2", self.s2_pos, f"r{i}", r))
            pairs.append((f"r{i}", r, "d", self.d_pos))
        lengths = [euclidean(a, b) for _, a, _, b in pairs]
        for (name_a, a, name_b, _), length in zip(pairs, lengths):
            if length <= 0.0:
                raise DegenerateGeometryError(
                    f"nodes {name_a} and {name_b} are coincident at {a}"
                )
        per_relay = np.array(lengths[2:]).reshape(-1, 3).T  # rows: s1-r, s2-r, r-d
        per_relay.flags.writeable = False
        object.__setattr__(self, "link_distances", LinkDistances(lengths[0], lengths[1], *per_relay))

    @property
    def num_relays(self) -> int:
        return len(self.relay_pos)


@dataclass(frozen=True)
class LinkDistances:
    """All link distances the two-source relay network uses, as
    ``NetworkTopology.link_distances`` holds them (read-only arrays)."""

    s1_d: float
    s2_d: float
    s1_r: np.ndarray  # source 1 to each relay
    s2_r: np.ndarray  # source 2 to each relay
    r_d: np.ndarray   # each relay to destination


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
        for f in fields(self):
            v = getattr(self, f.name)
            # A JSON `true` would otherwise pass as the number 1.
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ConfigError(f"{f.name} must be a number, got {v!r}")
            if not fits_float(v):
                raise ConfigError(f"{f.name} is too large for a float")
        if not is_whole(self.granularity):
            raise ConfigError(f"granularity must be a whole number, got {self.granularity!r}")
        # A JSON 1000.0 is stored as 1000, so it bins and prints as 1000 does.
        object.__setattr__(self, "granularity", int(self.granularity))
        # Every comparison below is false for NaN, so it would pass them and
        # fail later under another name.  A NaN granularity is not whole.
        for f in fields(self):
            if math.isnan(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must not be NaN")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError(f"eta must lie in [0, 1], got {self.eta}")
        if self.rate_r0 <= 0:
            raise ConfigError("rate_r0 must be positive")
        if not 0 < self.total_bits < math.inf:
            raise ConfigError("total_bits must be positive and finite")
        if not 1 <= self.granularity <= MAX_GRANULARITY:
            raise ConfigError(f"granularity {self.granularity} is outside [1, {MAX_GRANULARITY}]")
        if self.bandwidth_units <= 0 or self.power_units <= 0:
            raise ConfigError("resource unit counts must be positive")
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


@dataclass(frozen=True)
class LinkParam:
    """Exponential rate of a link's instantaneous SNR: d**alpha / snr."""

    rate_lambda: float

    def __post_init__(self):
        if not self.rate_lambda > 0:
            raise ConfigError(f"link rate must be positive, got {self.rate_lambda}")

    @property
    def mean_snr(self) -> float:
        return 1.0 / self.rate_lambda


def link_rate(distance: float, alpha: float, snr: float) -> float:
    """Exponential SNR rate for one link; 0 is allowed only at infinite SNR."""
    return distance**alpha / snr


@dataclass(frozen=True)
class LinkSet:
    """Per-link exponential rates for one source plus the shared relay hops."""

    direct: float          # source -> destination
    source_relay: np.ndarray  # source -> each relay
    relay_dest: np.ndarray    # each relay -> destination


def link_rates(topology: NetworkTopology, config: SystemConfig, source: int) -> LinkSet:
    """Rates d**alpha/snr for the links used when `source` (1 or 2) transmits."""
    if source not in (1, 2):
        raise ConfigError(f"source must be 1 or 2, got {source}")
    d = topology.link_distances
    snr = config.snr_linear()
    a = topology.alpha
    sd = d.s1_d if source == 1 else d.s2_d
    sr = d.s1_r if source == 1 else d.s2_r
    return LinkSet(
        direct=link_rate(sd, a, snr),
        source_relay=sr**a / snr,
        relay_dest=d.r_d**a / snr,
    )


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
            alpha=float(t.get("alpha", 3.0)),
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
