"""Synthetic city for the wardriving survey.

The city scatters access points (households) along a street grid and
attaches client devices to households, with vendors drawn exactly from
the paper's Table 2 census — 3,805 APs from 94 vendors, 1,523 clients
from 147 vendors.  APs sit on channels 1/6/11 like real deployments.

Simulating 5,328 always-on devices for a full drive would be pointless
event churn, so the city materializes devices **lazily**: an activation
manager tracks the survey vehicle and only devices within radio range
run (beacons, probe requests); devices left behind are detached from the
medium and silenced.  A device's identity (MAC, vendor, position) is
fixed in its :class:`DeviceSpec` at generation time, so lazy
materialization never changes *who* is discovered — only when their
radios burn simulator cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from repro.devices.access_point import AccessPoint, ApBehavior
from repro.devices.base import DeviceKind
from repro.devices.station import Station
from repro.devices.vendors import (
    VendorDatabase,
    full_ap_census,
    full_client_census,
)
from repro.mac.addresses import MacAddress, random_mac
from repro.sim.engine import Engine
from repro.sim.medium import Medium
from repro.sim.world import DriveRoute, Position

#: Channels real 2.4 GHz deployments cluster on.
SURVEY_CHANNELS = (1, 6, 11)


@dataclass
class CityConfig:
    """City geometry and behavioural parameters."""

    seed: int = 2020
    blocks_x: int = 12
    blocks_y: int = 8
    block_m: float = 90.0
    house_setback_m: float = 18.0
    #: Beacon interval for survey APs.  Real APs beacon every 102.4 ms;
    #: a longer interval keeps the event count tractable without changing
    #: discoverability (the vehicle dwells near each AP for many seconds).
    beacon_interval: float = 0.35
    client_probe_interval: float = 3.0
    #: Lazy-activation radii around the vehicle.
    activate_radius_m: float = 120.0
    deactivate_radius_m: float = 180.0
    activation_tick: float = 1.0
    #: Bucket device positions on a coarse spatial grid so each
    #: activation tick scans only devices near the vehicle (plus the
    #: currently-active set) instead of the whole population.  Pure
    #: optimisation: the visited order and the activate/deactivate
    #: sequence are identical with the grid on or off.
    activation_grid: bool = True
    #: Scale factor on the Table 2 census (1.0 = the paper's 5,328 nodes;
    #: tests use smaller cities).
    population_scale: float = 1.0
    #: When scaling down, keep at least one device per vendor (True keeps
    #: the vendor diversity; False lets small vendors drop out, which
    #: makes unit-test cities much smaller).
    keep_all_vendors: bool = True
    #: Hard cap on the generated population (``None`` = no cap).  Applied
    #: after census scaling by evenly subsampling the spec list, so a
    #: capped city keeps the full city's AP/client mix and spatial spread
    #: — the knob the e2e benchmark's ``metro`` workload uses
    #: (``max_devices=500``) to run the full census's street grid and
    #: tile geometry without the full device count.
    max_devices: Optional[int] = None


@dataclass
class DeviceSpec:
    """Immutable identity of one city device."""

    mac: MacAddress
    vendor: str
    kind: DeviceKind
    position: Position
    channel: int
    ssid: str = ""
    bssid: Optional[MacAddress] = None  # the AP a client belongs to
    device: Optional[Union[Station, AccessPoint]] = None
    active: bool = False
    ever_activated: bool = False
    #: Position in :attr:`SyntheticCity.specs` — the canonical visit
    #: order the spatial grid must reproduce.
    order: int = -1


def _scaled_census(census: List, scale: float, keep_all_vendors: bool = True) -> List:
    """Scale a (vendor, count) census.

    ``scale == 1.0`` returns the census untouched (the exact Table 2
    population); ``scale < 1.0`` shrinks it for unit-test cities and
    ``scale > 1.0`` grows it for the metro-scale census — the same
    per-vendor rounding in both directions, so vendor *diversity* (186
    vendors) is preserved while device counts scale.
    """
    if scale == 1.0:
        return census
    floor = 1 if keep_all_vendors else 0
    scaled = []
    for vendor, count in census:
        kept = max(int(round(count * scale)), floor) if count > 0 else 0
        if kept > 0:
            scaled.append((vendor, kept))
    return scaled


def _street_positions(
    rng: np.random.Generator, cfg: CityConfig, count: int
) -> List[Position]:
    """Household positions set back from the street grid."""
    positions = []
    for _ in range(count):
        # A household sits beside a random street segment.
        gx = float(rng.uniform(0, cfg.blocks_x - 1)) * cfg.block_m
        gy = int(rng.integers(0, cfg.blocks_y)) * cfg.block_m
        side = 1.0 if rng.random() < 0.5 else -1.0
        setback = float(rng.uniform(0.4, 1.6)) * cfg.house_setback_m
        positions.append(Position(gx, gy + side * setback, 3.0))
    return positions


def generate_specs(
    config: CityConfig, vendor_db: Optional[VendorDatabase] = None
) -> List[DeviceSpec]:
    """Deterministic :class:`DeviceSpec` list for ``config``.

    A pure function of the config (one fresh generator seeded from
    ``config.seed``): every caller — the city itself, or a partition
    tile worker regenerating the population instead of receiving ~100k
    pickled specs — gets byte-identical identities, positions, and
    visit order.  Orders are assigned to the returned list positions.
    """
    cfg = config
    db = vendor_db if vendor_db is not None else VendorDatabase()
    rng = np.random.default_rng(cfg.seed)
    ap_census = _scaled_census(
        full_ap_census(), cfg.population_scale, cfg.keep_all_vendors
    )
    client_census = _scaled_census(
        full_client_census(), cfg.population_scale, cfg.keep_all_vendors
    )

    ap_specs: List[DeviceSpec] = []
    used = set()
    for vendor, count in ap_census:
        ouis = db.ouis_for(vendor)
        for index in range(count):
            while True:
                mac = random_mac(rng, ouis[index % len(ouis)])
                if mac not in used:
                    used.add(mac)
                    break
            ap_specs.append(
                DeviceSpec(
                    mac=mac,
                    vendor=vendor,
                    kind=DeviceKind.ACCESS_POINT,
                    position=Position(0, 0),  # placed below
                    channel=int(
                        SURVEY_CHANNELS[int(rng.integers(0, len(SURVEY_CHANNELS)))]
                    ),
                    ssid=f"net-{len(ap_specs):04d}",
                )
            )
    for spec, position in zip(ap_specs, _street_positions(rng, cfg, len(ap_specs))):
        spec.position = position

    client_specs: List[DeviceSpec] = []
    for vendor, count in client_census:
        ouis = db.ouis_for(vendor)
        for index in range(count):
            while True:
                mac = random_mac(rng, ouis[index % len(ouis)])
                if mac not in used:
                    used.add(mac)
                    break
            # Clients live in some household: near a random AP.
            home = ap_specs[int(rng.integers(0, len(ap_specs)))]
            offset_x = float(rng.uniform(-8.0, 8.0))
            offset_y = float(rng.uniform(-8.0, 8.0))
            client_specs.append(
                DeviceSpec(
                    mac=mac,
                    vendor=vendor,
                    kind=DeviceKind.CLIENT,
                    position=home.position.translated(offset_x, offset_y, -1.0),
                    channel=home.channel,
                    bssid=home.mac,
                )
            )
    specs = ap_specs + client_specs
    cap = cfg.max_devices
    if cap is not None and len(specs) > cap:
        # Evenly-spaced subsample: deterministic, and it preserves the
        # AP/client ratio and the spatial spread of the full city.
        step = len(specs) / cap
        specs = [specs[int(i * step)] for i in range(cap)]
    for order, spec in enumerate(specs):
        spec.order = order
    return specs


class SyntheticCity:
    """Device population + lazy activation around a tracked vehicle."""

    def __init__(
        self,
        engine: Engine,
        medium: Medium,
        config: Optional[CityConfig] = None,
        specs: Optional[List[DeviceSpec]] = None,
    ) -> None:
        self.engine = engine
        self.medium = medium
        self.config = config if config is not None else CityConfig()
        self.vendor_db = VendorDatabase()
        self._rng = np.random.default_rng(self.config.seed)
        self.specs: List[DeviceSpec] = []
        self._vehicle_route: Optional[DriveRoute] = None
        self._running = False
        self.activations = 0
        self.deactivations = 0
        #: Orders of currently-active specs (mirror of ``spec.active``).
        self._active: set = set()
        #: (cell_x, cell_y) -> orders of specs in that cell; built at
        #: :meth:`start` when ``config.activation_grid`` is on.
        self._grid: Optional[Dict[tuple, List[int]]] = None
        self._grid_cell_m = 0.0
        if specs is None:
            self._generate_population()
        else:
            self._adopt_specs(specs)

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def _generate_population(self) -> None:
        self.specs = generate_specs(self.config, self.vendor_db)
        self._by_mac: Dict[MacAddress, DeviceSpec] = {
            spec.mac: spec for spec in self.specs
        }

    def _adopt_specs(self, specs: List[DeviceSpec]) -> None:
        """Run this city over an externally supplied device population.

        The partition layer uses this to hand a tile city the subset of
        the full city's specs it owns (plus its halo).  Each spec is
        cloned: runtime fields (``device``, ``active``,
        ``ever_activated``) are per-city state, and ``order`` must be
        renumbered because :meth:`_tick_candidates` indexes
        ``self.specs`` by it.  Identity fields (MAC, vendor, position,
        channel) are shared immutable values, so two tile cities
        adopting overlapping subsets stay independent.
        """
        adopted: List[DeviceSpec] = []
        for order, src in enumerate(specs):
            adopted.append(
                DeviceSpec(
                    mac=src.mac,
                    vendor=src.vendor,
                    kind=src.kind,
                    position=src.position,
                    channel=src.channel,
                    ssid=src.ssid,
                    bssid=src.bssid,
                    order=order,
                )
            )
        self.specs = adopted
        self._by_mac: Dict[MacAddress, DeviceSpec] = {
            spec.mac: spec for spec in self.specs
        }

    @property
    def ap_specs(self) -> List[DeviceSpec]:
        return [s for s in self.specs if s.kind is DeviceKind.ACCESS_POINT]

    @property
    def client_specs(self) -> List[DeviceSpec]:
        return [s for s in self.specs if s.kind is DeviceKind.CLIENT]

    def spec_of(self, mac: MacAddress) -> Optional[DeviceSpec]:
        return self._by_mac.get(MacAddress(mac))

    # ------------------------------------------------------------------
    # Route / bounds
    # ------------------------------------------------------------------
    def survey_route(self, speed_mps: float = 11.0) -> DriveRoute:
        """Serpentine drive covering every street of the grid."""
        cfg = self.config
        waypoints = []
        for row in range(cfg.blocks_y):
            y = row * cfg.block_m
            xs = (
                [0.0, (cfg.blocks_x - 1) * cfg.block_m]
                if row % 2 == 0
                else [(cfg.blocks_x - 1) * cfg.block_m, 0.0]
            )
            waypoints.extend(Position(x, y, 1.5) for x in xs)
        return DriveRoute(waypoints, speed_mps)

    # ------------------------------------------------------------------
    # Lazy activation
    # ------------------------------------------------------------------
    def start(self, vehicle_route: DriveRoute, departure_time: float = 0.0) -> None:
        """Begin tracking the vehicle and activating nearby devices."""
        self._vehicle_route = vehicle_route
        self._departure = departure_time
        self._running = True
        if self.config.activation_grid:
            self._build_activation_grid()
        self.engine.call_after(0.0, self._activation_tick)

    def _build_activation_grid(self) -> None:
        """Bucket spec orders by coarse cell.

        Cell size equals the activation radius, so every device within
        ``activate_radius_m`` of the vehicle lives in the 3x3 block of
        cells around the vehicle's cell.  Device positions are fixed at
        generation time, so the grid is built once.
        """
        self._grid_cell_m = float(self.config.activate_radius_m)
        grid: Dict[tuple, List[int]] = {}
        for spec in self.specs:
            grid.setdefault(self._cell_of(spec.position.x, spec.position.y), []).append(
                spec.order
            )
        self._grid = grid

    def _cell_of(self, x: float, y: float) -> tuple:
        return (int(x // self._grid_cell_m), int(y // self._grid_cell_m))

    def stop(self) -> None:
        self._running = False
        for spec in self.specs:
            if spec.active:
                self._deactivate(spec)

    def _activation_tick(self) -> None:
        if not self._running or self._vehicle_route is None:
            return
        now = self.engine.now
        vehicle = self._vehicle_route.position_at(now - self._departure)
        activate_r = self.config.activate_radius_m
        deactivate_r = self.config.deactivate_radius_m
        for spec in self._tick_candidates(vehicle):
            distance = vehicle.distance_to(spec.position)
            if spec.active and distance > deactivate_r:
                self._deactivate(spec)
            elif not spec.active and distance <= activate_r:
                self._activate(spec)
        self.engine.call_after(self.config.activation_tick, self._activation_tick)

    def _tick_candidates(self, vehicle: Position):
        """Specs a tick must examine, in canonical (generation) order.

        Without the grid: every spec.  With it: the active set (any of
        which may need deactivating) plus everything in the 3x3 cell
        block around the vehicle (everything that could newly activate).
        Specs outside both groups are inactive and out of range — the
        full scan would skip them anyway — so sorting the union by
        ``order`` reproduces the full scan's activate/deactivate
        sequence exactly.
        """
        if self._grid is None:
            return self.specs
        candidates = set(self._active)
        cell_x, cell_y = self._cell_of(vehicle.x, vehicle.y)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                candidates.update(self._grid.get((cell_x + dx, cell_y + dy), ()))
        return [self.specs[order] for order in sorted(candidates)]

    def _activate(self, spec: DeviceSpec) -> None:
        if spec.device is None:
            spec.device = self._materialize(spec)
        elif not self.medium.has_radio(spec.device.radio.name):
            self.medium.attach(spec.device.radio)
        spec.active = True
        spec.ever_activated = True
        self._active.add(spec.order)
        self.activations += 1
        if isinstance(spec.device, AccessPoint):
            spec.device.start_beaconing()
        else:
            spec.device.start_probing(self.config.client_probe_interval)

    def _deactivate(self, spec: DeviceSpec) -> None:
        spec.active = False
        self._active.discard(spec.order)
        self.deactivations += 1
        if spec.device is None:
            return
        if isinstance(spec.device, AccessPoint):
            spec.device.stop_beaconing()
        else:
            spec.device.stop_probing()
        self.medium.detach(spec.device.radio.name)

    def _materialize(self, spec: DeviceSpec) -> Union[Station, AccessPoint]:
        rng = np.random.default_rng(
            int.from_bytes(spec.mac.bytes, "big") ^ self.config.seed
        )
        if spec.kind is DeviceKind.ACCESS_POINT:
            return AccessPoint(
                mac=spec.mac,
                medium=self.medium,
                position=spec.position,
                rng=rng,
                vendor=spec.vendor,
                channel=spec.channel,
                ssid=spec.ssid,
                behavior=ApBehavior(
                    beacon_interval=self.config.beacon_interval,
                    # Roughly one AP in five barks at intruders (Section 2.1
                    # reports "some access points").
                    deauth_on_unknown=bool(rng.random() < 0.2),
                    respond_to_wildcard_probe=False,
                ),
            )
        return Station(
            mac=spec.mac,
            medium=self.medium,
            position=spec.position,
            rng=rng,
            vendor=spec.vendor,
            channel=spec.channel,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def population(self) -> int:
        return len(self.specs)

    def active_count(self) -> int:
        return sum(1 for spec in self.specs if spec.active)

    def coverage(self) -> float:
        """Fraction of the population that has ever been in radio range."""
        if not self.specs:
            return 0.0
        return sum(1 for spec in self.specs if spec.ever_activated) / len(self.specs)
