"""Seeded input generators for the benchmark workloads (stdlib only).

The program never sees a seed: each generator turns the benchmark's seed
into plain scenario dicts in the JSON shape that `wingsafe run --config`
and `wingsafe.scenarios.config_from_dict` accept.  The fixed parameters
below are the paper's headline set (the same values as the builtin `sweep`
and `circle20` scenarios), written out here so that the benchmark inputs do
not move when the program's builtin defaults do.
"""

from __future__ import annotations

import math
import random

V_MIN, V_MAX = 15.0, 25.0
OMEGA_MAX = math.radians(13.0)
SENSOR_RANGE = 350.0

_BASE = {
    "limits": {"v_min": V_MIN, "v_max": V_MAX, "omega_max": OMEGA_MAX, "zeta_max": 5.0},
    "barrier": {
        "kind": "turn",
        "sigma": 1.0,
        "speed": 0.9 * V_MIN + 0.1 * V_MAX,
        "turn_rate": 0.9 * OMEGA_MAX,
        "delta": 0.01,
        "ds": 5.0,
    },
    "sensor_range": SENSOR_RANGE,
    "shaping": {"xi": "auto", "beta": 0.9},
    "alpha": {"kind": "linear", "slope": 1.0},
    "dt": 0.01,
    "mode": "centralized",
}

# airspace: independent rings, each a small circle20-style group converging
# on its own centre.  Centres are so far apart that no cross-ring pair ever
# comes within sensing range (2600 - 2 * 340 >> 350), so only in-ring pairs
# (30 of 190) can be sensed, and simultaneous conflicts in different rings
# are independent components of the centralized QP.
AIRSPACE_RINGS = 5
AIRSPACE_PER_RING = 4
AIRSPACE_SPACING = 2600.0
AIRSPACE_RADIUS = (270.0, 340.0)
# every ring arrives at the same time, so conflicts in different rings
# overlap in time (independent QP components), and the run's cost varies
# little with the seed
AIRSPACE_ARRIVAL = 14.0
AIRSPACE_DURATION = 18.0

# encounters: the forward-invariance (criterion 9) distribution
ENCOUNTER_DURATION = 20.0


def scenario(vehicles: list[dict], duration: float, seed: int) -> dict:
    return {**_BASE, "vehicles": vehicles, "duration": duration, "seed": seed}


def goal_vehicle(x, y, heading, goal, **controller) -> dict:
    return {
        "state": [x, y, heading, 0.0],
        "controller": {"type": "goal", "goal": [goal[0], goal[1], 0.0], **controller},
    }


def _radical_inverse(k: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while k:
        k, digit = divmod(k, base)
        inv += digit * f
        f /= base
    return inv


def _shifted_halton(seed: int, bases: tuple[int, ...]):
    """Randomly shifted Halton points in the unit cube: a low-discrepancy
    sequence, so any prefix of it covers the cube evenly, with a seeded
    shift per dimension so each seed gives different points."""
    rng = random.Random(f"halton-{seed}")
    shift = [rng.random() for _ in bases]
    k = 0
    while True:
        k += 1
        yield [(_radical_inverse(k, b) + s) % 1.0 for b, s in zip(bases, shift)]


def encounters(seed: int):
    """Endless stream of two-vehicle crossings from the forward-invariance
    (criterion 9) distribution: both vehicles start outside sensing range
    (so the shaped barrier starts on its plateau) and fly through a shared
    region.  Points come from a randomized quasi-Monte Carlo sequence rather
    than independent draws, so the few dozen encounters one run measures
    cover the distribution evenly and a run's median time varies little
    from seed to seed.  The dimensions that set an encounter's cost (crossing
    angle, then the two start distances) get the smallest bases."""

    def lerp(u, lo, hi):
        return lo + (hi - lo) * u

    for u_cross, u_da, u_db, u_phi, u_cx, u_cy in _shifted_halton(seed, (2, 3, 5, 7, 11, 13)):
        cx, cy = lerp(u_cx, -50.0, 50.0), lerp(u_cy, -50.0, 50.0)
        phi_a = lerp(u_phi, -math.pi, math.pi)
        phi_b = phi_a + math.pi + lerp(u_cross, -2.5, 2.5)
        da, db = lerp(u_da, 180.0, 320.0), lerp(u_db, 180.0, 320.0)
        ax, ay = cx - da * math.cos(phi_a), cy - da * math.sin(phi_a)
        bx, by = cx - db * math.cos(phi_b), cy - db * math.sin(phi_b)
        if math.hypot(ax - bx, ay - by) <= SENSOR_RANGE:
            continue
        goal_a = (cx + 420.0 * math.cos(phi_a), cy + 420.0 * math.sin(phi_a))
        goal_b = (cx + 420.0 * math.cos(phi_b), cy + 420.0 * math.sin(phi_b))
        yield scenario(
            [
                goal_vehicle(ax, ay, phi_a, goal_a, cruise_speed=20.0),
                goal_vehicle(bx, by, phi_b, goal_b, cruise_speed=20.0),
            ],
            ENCOUNTER_DURATION,
            seed,
        )


def airspace(seed: int) -> dict:
    """Seeded airspace of independent converging rings."""
    rng = random.Random(f"airspace-{seed}")
    cols = math.ceil(math.sqrt(AIRSPACE_RINGS))
    vehicles = []
    for ring in range(AIRSPACE_RINGS):
        ox = (ring % cols) * AIRSPACE_SPACING
        oy = (ring // cols) * AIRSPACE_SPACING
        radius = rng.uniform(*AIRSPACE_RADIUS)
        phase = rng.uniform(0.0, 2.0 * math.pi / AIRSPACE_PER_RING)
        for k in range(AIRSPACE_PER_RING):
            ang = phase + 2.0 * math.pi * k / AIRSPACE_PER_RING
            vehicles.append(
                goal_vehicle(
                    ox + radius * math.cos(ang),
                    oy + radius * math.sin(ang),
                    ang + math.pi,
                    (ox, oy),
                    arrival_time=AIRSPACE_ARRIVAL,
                )
            )
    return scenario(vehicles, AIRSPACE_DURATION, seed)
