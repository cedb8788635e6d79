"""Spatial layer: positions, mobility, and the scenario world.

Positions are 3-D points in metres.  Mobility is needed in two places:

* the wardriving vehicle of Section 3 follows a :class:`DriveRoute` through
  the synthetic city at driving speed, and
* human scatterers in the CSI channel model move according to the motion
  models in :mod:`repro.channel.motion` (those only perturb path lengths,
  not entity positions, so they do not appear here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class Position:
    """A point in 3-D space (metres)."""

    x: float
    y: float
    z: float = 0.0

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance in metres."""
        # ``** 2`` (not ``d * d``): libm pow is off by 1 ULP from the
        # rounded product for some inputs here, and seeded-run traces are
        # bit-compared across revisions.
        dx = self.x - other.x
        dy = self.y - other.y
        dz = self.z - other.z
        return math.sqrt(dx ** 2 + dy ** 2 + dz ** 2)

    def propagation_delay_to(self, other: "Position") -> float:
        """Free-space propagation delay in seconds."""
        return self.distance_to(other) / SPEED_OF_LIGHT

    def translated(self, dx: float = 0.0, dy: float = 0.0, dz: float = 0.0) -> "Position":
        return Position(self.x + dx, self.y + dy, self.z + dz)

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.x, self.y, self.z)


class DriveRoute:
    """Piecewise-linear route traversed at constant speed.

    ``position_at(t)`` interpolates along the waypoints; after the route is
    exhausted the vehicle parks at the final waypoint.  The paper's survey
    drove for one hour; routes here are built by the synthetic city to take
    a comparable (simulated) duration.
    """

    def __init__(self, waypoints: Sequence[Position], speed_mps: float) -> None:
        if len(waypoints) < 2:
            raise ValueError("a route needs at least two waypoints")
        if speed_mps <= 0.0:
            raise ValueError(f"speed must be positive, got {speed_mps!r}")
        self.waypoints = list(waypoints)
        self.speed_mps = float(speed_mps)
        self._segment_lengths = [
            self.waypoints[i].distance_to(self.waypoints[i + 1])
            for i in range(len(self.waypoints) - 1)
        ]
        self.total_length = sum(self._segment_lengths)

    @property
    def duration(self) -> float:
        """Time in seconds to traverse the whole route."""
        return self.total_length / self.speed_mps

    def position_at(self, time: float, dz: float = 0.0) -> Position:
        """Vehicle position ``time`` seconds after departure, ``dz`` up.

        Equal to ``position_at(time).translated(dz=dz)``, built as one
        :class:`Position` (a wardrive rig asks once per transmission).
        """
        if time <= 0.0:
            start = self.waypoints[0]
            return start if dz == 0.0 else start.translated(dz=dz)
        remaining = time * self.speed_mps
        for index, length in enumerate(self._segment_lengths):
            if length == 0.0:
                continue
            if remaining <= length:
                start = self.waypoints[index]
                end = self.waypoints[index + 1]
                fraction = remaining / length
                return Position(
                    start.x + (end.x - start.x) * fraction,
                    start.y + (end.y - start.y) * fraction,
                    start.z + (end.z - start.z) * fraction + dz,
                )
            remaining -= length
        end = self.waypoints[-1]
        return end if dz == 0.0 else end.translated(dz=dz)


class World:
    """Registry mapping entity names to (possibly mobile) positions."""

    def __init__(self) -> None:
        self._static: Dict[str, Position] = {}
        self._routes: Dict[str, Tuple[DriveRoute, float]] = {}

    def place(self, name: str, position: Position) -> None:
        """Pin a static entity at ``position``."""
        self._static[name] = position
        self._routes.pop(name, None)

    def set_route(self, name: str, route: DriveRoute, departure_time: float = 0.0) -> None:
        """Attach a mobile entity to a drive route."""
        self._routes[name] = (route, departure_time)
        self._static.pop(name, None)

    def position_of(self, name: str, time: float = 0.0) -> Position:
        """Position of ``name`` at simulation time ``time``."""
        if name in self._static:
            return self._static[name]
        if name in self._routes:
            route, departure = self._routes[name]
            return route.position_at(time - departure)
        raise KeyError(f"unknown entity {name!r}")

    def entities(self) -> List[str]:
        return sorted(set(self._static) | set(self._routes))

    def neighbours_within(
        self, name: str, radius_m: float, time: float = 0.0
    ) -> List[str]:
        """Entities (other than ``name``) within ``radius_m`` at ``time``."""
        centre = self.position_of(name, time)
        found = []
        for other in self.entities():
            if other == name:
                continue
            if centre.distance_to(self.position_of(other, time)) <= radius_m:
                found.append(other)
        return found

    def grid_route(
        self,
        origin: Position,
        block_m: float,
        columns: int,
        rows: int,
        speed_mps: float,
    ) -> DriveRoute:
        """Serpentine route over a street grid (the city survey drive)."""
        waypoints: List[Position] = []
        for row in range(rows):
            y = origin.y + row * block_m
            xs = range(columns) if row % 2 == 0 else range(columns - 1, -1, -1)
            for col in xs:
                waypoints.append(Position(origin.x + col * block_m, y, origin.z))
        if len(waypoints) < 2:
            raise ValueError("grid must contain at least two waypoints")
        return DriveRoute(waypoints, speed_mps)
