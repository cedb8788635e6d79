"""Positions, routes, and the world registry."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.world import DriveRoute, Position, World


class TestPosition:
    def test_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == pytest.approx(5.0)

    def test_distance_3d(self):
        assert Position(0, 0, 0).distance_to(Position(1, 2, 2)) == pytest.approx(3.0)

    def test_distance_symmetric(self):
        a, b = Position(1, 2, 3), Position(-4, 5, 0.5)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_propagation_delay(self):
        delay = Position(0, 0).propagation_delay_to(Position(299.792458, 0))
        assert delay == pytest.approx(1e-6)

    def test_translated(self):
        moved = Position(1, 1, 1).translated(dx=1, dy=-1, dz=0.5)
        assert moved == Position(2, 0, 1.5)

    @given(
        st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
        st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
    )
    def test_triangle_inequality(self, x1, y1, x2, y2):
        a = Position(x1, y1)
        b = Position(x2, y2)
        origin = Position(0, 0)
        assert a.distance_to(b) <= a.distance_to(origin) + origin.distance_to(b) + 1e-6


class TestDriveRoute:
    def test_requires_two_waypoints(self):
        with pytest.raises(ValueError):
            DriveRoute([Position(0, 0)], 10.0)

    def test_requires_positive_speed(self):
        with pytest.raises(ValueError):
            DriveRoute([Position(0, 0), Position(1, 0)], 0.0)

    def test_starts_at_first_waypoint(self):
        route = DriveRoute([Position(0, 0), Position(100, 0)], 10.0)
        assert route.position_at(0.0) == Position(0, 0)
        assert route.position_at(-5.0) == Position(0, 0)

    def test_interpolates_linearly(self):
        route = DriveRoute([Position(0, 0), Position(100, 0)], 10.0)
        mid = route.position_at(5.0)
        assert mid.x == pytest.approx(50.0)

    def test_parks_at_end(self):
        route = DriveRoute([Position(0, 0), Position(100, 0)], 10.0)
        assert route.position_at(1e6) == Position(100, 0)

    def test_multi_segment(self):
        route = DriveRoute(
            [Position(0, 0), Position(100, 0), Position(100, 100)], 10.0
        )
        assert route.duration == pytest.approx(20.0)
        corner = route.position_at(10.0)
        assert (corner.x, corner.y) == (pytest.approx(100.0), pytest.approx(0.0))
        later = route.position_at(15.0)
        assert later.y == pytest.approx(50.0)

    def test_duplicate_waypoints_tolerated(self):
        route = DriveRoute(
            [Position(0, 0), Position(0, 0), Position(10, 0)], 10.0
        )
        assert route.position_at(0.5).x == pytest.approx(5.0)

    @given(st.floats(0.0, 100.0))
    def test_position_always_within_bounding_box(self, time):
        route = DriveRoute(
            [Position(0, 0), Position(50, 0), Position(50, 50)], 5.0
        )
        position = route.position_at(time)
        assert -1e-9 <= position.x <= 50.0 + 1e-9
        assert -1e-9 <= position.y <= 50.0 + 1e-9

    @given(st.floats(-10.0, 100.0), st.floats(0.0, 5.0))
    def test_lifted_position_is_the_translated_one(self, time, dz):
        # The wardrive rig asks for its antenna with one call; the
        # floats must be those of position_at(...).translated(dz=...).
        route = DriveRoute(
            [Position(0, 0, 0.5), Position(50, 0, 0.5), Position(50, 50, 2.0)], 5.0
        )
        lifted = route.position_at(time, dz)
        expected = route.position_at(time).translated(dz=dz)
        assert lifted.as_tuple() == expected.as_tuple()


class TestWorld:
    def test_static_placement(self):
        world = World()
        world.place("ap", Position(1, 2))
        assert world.position_of("ap") == Position(1, 2)

    def test_unknown_entity(self):
        with pytest.raises(KeyError):
            World().position_of("ghost")

    def test_mobile_entity(self):
        world = World()
        route = DriveRoute([Position(0, 0), Position(100, 0)], 10.0)
        world.set_route("car", route, departure_time=5.0)
        assert world.position_of("car", 5.0) == Position(0, 0)
        assert world.position_of("car", 10.0).x == pytest.approx(50.0)

    def test_neighbours_within(self):
        world = World()
        world.place("centre", Position(0, 0))
        world.place("near", Position(5, 0))
        world.place("far", Position(500, 0))
        assert world.neighbours_within("centre", 10.0) == ["near"]

    def test_grid_route_covers_rows(self):
        world = World()
        route = world.grid_route(Position(0, 0), 10.0, columns=3, rows=2, speed_mps=5.0)
        assert route.total_length > 0
        assert route.waypoints[0] == Position(0, 0)
