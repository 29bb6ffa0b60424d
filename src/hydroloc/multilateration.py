"""Beacon position estimation from anchor TOF measurements.

A real-coded genetic algorithm searches an ENU box for the position that
best explains the measured times of flight from at least four surface
anchors. Because the anchors are coplanar at the surface, the residual
surface is symmetric under reflection through the surface plane; the
search bounds require up <= 0, which makes the underwater solution the
unique feasible one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .propagation import ChannelProfile, _layer_at, _layer_overlaps, pairwise_tof

__all__ = [
    "Anchor",
    "SearchBounds",
    "GaConfig",
    "PositionEstimate",
    "fitness",
    "range_from_tof",
    "ga_localize",
    "evolve_generation",
]

log = logging.getLogger(__name__)

# Residual contribution of a candidate/anchor pair with no direct path:
# large but finite so the search surface stays totally ordered.
NO_PATH_PENALTY = 1e6
# Stop early when the best residual is essentially zero, or when the best
# has not improved for this many generations.
FITNESS_STOP = 1e-12
STAGNATION_LIMIT = 50
# Each parent is the best of a tournament of TOURNAMENT_SIZE; a pair is
# blended with probability CROSSOVER_RATE and each child coordinate
# mutates with probability MUTATION_RATE.
TOURNAMENT_SIZE = 3
CROSSOVER_RATE = 0.9
MUTATION_RATE = 0.3
# 0.96 anneals the mutation noise fast enough that the stagnation stop
# does not fire while sigma still dwarfs the remaining error.
MUTATION_SIGMA_DECAY = 0.96
# The best individual passes to the next generation unchanged.
ELITE_COUNT = 1
# A final elite dispersion above this (m) is logged as a poorly constrained fix.
DISPERSION_WARN_M = 10.0


@dataclass(frozen=True)
class Anchor:
    """A surface reference point with a (possibly GPS-noisy) ENU position."""

    id: str
    position: tuple[float, float, float]  # ENU, m


@dataclass(frozen=True)
class SearchBounds:
    """Axis-aligned ENU search box; the up range must stay at or below 0."""

    east: tuple[float, float]
    north: tuple[float, float]
    up: tuple[float, float]

    def __post_init__(self) -> None:
        for name, (lo, hi) in (("east", self.east), ("north", self.north), ("up", self.up)):
            if not lo < hi:
                raise ValueError(f"{name}: must satisfy lo < hi, got {(lo, hi)}")
            if not np.isfinite(hi - lo):
                raise ValueError(f"{name}: extent must be finite, got {(lo, hi)}")
        if self.up[1] > 0.0:
            raise ValueError(f"up: upper limit must be <= 0, got {self.up[1]}")

    def lows(self) -> np.ndarray:
        return np.array([self.east[0], self.north[0], self.up[0]])

    def highs(self) -> np.ndarray:
        return np.array([self.east[1], self.north[1], self.up[1]])

    def contains(self, point) -> bool:
        p = np.asarray(point, float)
        return bool(np.all(p >= self.lows()) and np.all(p <= self.highs()))

    def largest_extent(self) -> float:
        return float(np.max(self.highs() - self.lows()))


@dataclass(frozen=True)
class GaConfig:
    """The genetic solver settings a scenario sets.

    The mutation sigma starts at 10% of the largest bounds extent and
    decays by MUTATION_SIGMA_DECAY each generation.
    """

    search_bounds: SearchBounds
    population_size: int = 200
    generations: int = 300
    fitness_mode: str = "tof_residual"

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise ValueError(f"population_size: must be >= 4, got {self.population_size}")
        if self.generations < 1:
            raise ValueError(f"generations: must be >= 1, got {self.generations}")
        if self.fitness_mode not in ("tof_residual", "range_residual"):
            raise ValueError(
                f"fitness_mode: must be 'tof_residual' or 'range_residual', "
                f"got {self.fitness_mode!r}"
            )

    def initial_sigma(self) -> float:
        return 0.1 * self.search_bounds.largest_extent()


@dataclass(frozen=True, eq=False)
class PositionEstimate:
    """A solver fix: position plus convergence diagnostics.

    population_dispersion is the RMS distance of the final elite decile
    from the best individual; large values flag degenerate anchor
    geometry. best_fitness is in s^2 (tof_residual) or m^2
    (range_residual).
    """

    position: np.ndarray = field(repr=False)
    best_fitness: float
    population_dispersion: float
    generations_run: int


def range_from_tof(tof, profile: ChannelProfile, anchor_depth, target_depth):
    """Convert TOFs to slant ranges with the harmonic-mean sound speed.

    The speed is thickness-weighted over the depth interval between the
    anchor and an assumed target depth; a zero-thickness interval uses
    the local layer speed. Arguments broadcast elementwise; scalar
    arguments give a float.
    """
    tof = np.asarray(tof, float)
    z_lo = np.minimum(anchor_depth, target_depth)
    z_hi = np.maximum(anchor_depth, target_depth)
    if not ((tof > 0.0) & (z_lo >= 0.0) & (z_hi <= profile.total_depth)).all():
        raise ValueError(
            f"need tof > 0 and depths in the water column [0, {profile.total_depth}], "
            f"got tof {tof}, anchor depth {anchor_depth}, target depth "
            f"{target_depth}"
        )

    boundaries = np.asarray(profile.boundaries)
    speeds = np.asarray(profile.sound_speeds)
    thickness = z_hi - z_lo
    with np.errstate(invalid="ignore", divide="ignore"):
        harmonic = thickness / (_layer_overlaps(boundaries, z_lo, z_hi) / speeds).sum(axis=-1)
    local = speeds[_layer_at(boundaries, z_lo)]
    ranges = tof * np.where(thickness > 0.0, harmonic, local)
    return float(ranges) if ranges.ndim == 0 else ranges


def fitness(
    candidates,
    anchor_pos,
    observed,
    profile: ChannelProfile,
    mode: str = "tof_residual",
):
    """Sum of squared residuals of the candidate(s) against one fix's pings.

    anchor_pos is the (M, 3) ENU array of the pinged anchors. observed
    holds their measured TOFs (s) for tof_residual, which compares
    modelled travel times (s^2), or their slant ranges (m) for
    range_residual, which compares Euclidean distances (m^2). Candidates
    may be a single ENU triple or an (N, 3) array; no-direct-path terms
    add a large finite penalty instead of raising.
    """
    cands = np.asarray(candidates, float)
    scalar_in = cands.ndim == 1
    cands = np.atleast_2d(cands)
    depths = -cands[:, 2]
    if (depths < 0.0).any() or (depths > profile.total_depth).any():
        raise ValueError("candidate depth outside the water column")

    if mode == "tof_residual":
        tof_model, ok = pairwise_tof(profile, cands, anchor_pos)
        terms = (tof_model - observed) ** 2
        terms = np.where(ok, terms, NO_PATH_PENALTY)
    elif mode == "range_residual":
        dist = np.linalg.norm(cands[:, None, :] - anchor_pos[None, :, :], axis=-1)
        terms = (dist - observed) ** 2
    else:
        raise ValueError(f"unknown fitness mode {mode!r}")

    total = terms.sum(axis=1)
    return float(total[0]) if scalar_in else total


def evolve_generation(
    population: np.ndarray,
    fitness_values: np.ndarray,
    config: GaConfig,
    rng: np.random.Generator,
    sigma: float,
) -> np.ndarray:
    """One generation step: elitism, tournament, BLX-0.5, mutation, clamp.

    The ELITE_COUNT best individuals are copied verbatim; the remainder
    come from tournament-selected parents, blended with probability
    CROSSOVER_RATE (otherwise cloned from the first parent), then each
    coordinate is perturbed with probability MUTATION_RATE by Gaussian
    noise of the given sigma. Offspring are clamped to the search bounds.
    """
    pop = np.asarray(population, float)
    fits = np.asarray(fitness_values, float)
    n = config.population_size
    if pop.shape != (n, 3):
        raise ValueError(f"population shape {pop.shape} does not match config ({n}, 3)")

    order = np.argsort(fits, kind="stable")
    elites = pop[order[:ELITE_COUNT]].copy()
    n_off = n - ELITE_COUNT

    contenders = rng.integers(0, n, size=(n_off, 2, TOURNAMENT_SIZE))
    best_slot = fits[contenders].argmin(axis=-1)
    parent_idx = np.take_along_axis(contenders, best_slot[..., None], axis=-1)[..., 0]
    p1 = pop[parent_idx[:, 0]]
    p2 = pop[parent_idx[:, 1]]

    do_cross = rng.random(n_off) < CROSSOVER_RATE
    span = np.abs(p1 - p2)
    lo = np.minimum(p1, p2) - 0.5 * span
    hi = np.maximum(p1, p2) + 0.5 * span
    blend = lo + rng.random((n_off, 3)) * (hi - lo)
    children = np.where(do_cross[:, None], blend, p1)

    mutate = rng.random((n_off, 3)) < MUTATION_RATE
    children = children + mutate * rng.normal(0.0, sigma, size=(n_off, 3))

    bounds = config.search_bounds
    children = np.clip(children, bounds.lows(), bounds.highs())
    return np.vstack([elites, children])


def ga_localize(
    measurements,
    anchors,
    config: GaConfig,
    profile: ChannelProfile,
    seed: int,
    trace=None,
) -> PositionEstimate:
    """Run the genetic solver and return the best fix.

    Needs measurements from at least four distinct anchors, each with a
    finite, positive TOF. The residual problem is built once: the pinged
    anchors' positions, and in range_residual mode the measured ranges,
    converted at the middle of the search depths. Deterministic given
    (measurements, anchors, config, seed): all randomness flows from
    seed. trace, if given, is called as trace(generation, best_fitness,
    sigma) after every evaluated generation.
    """
    measurements = list(measurements)
    if not measurements:
        raise ValueError("no measurements supplied")
    distinct = {m.anchor_id for m in measurements}
    if len(distinct) < 4:
        raise ValueError(
            f"underdetermined fix: need measurements from >= 4 distinct anchors, "
            f"got {len(distinct)}"
        )
    by_id = {a.id: a for a in anchors}
    for m in measurements:
        if m.anchor_id not in by_id:
            raise ValueError(f"measurement references unknown anchor id {m.anchor_id!r}")
        if not (np.isfinite(m.tof_measured) and m.tof_measured > 0.0):
            raise ValueError(
                f"anchor {m.anchor_id!r}: measured TOF must be finite and > 0, "
                f"got {m.tof_measured!r}"
            )

    bounds = config.search_bounds
    if -bounds.up[0] > profile.total_depth:
        raise ValueError(
            f"search bounds reach below the water column "
            f"({-bounds.up[0]} m > {profile.total_depth} m)"
        )

    anchor_pos = np.asarray([by_id[m.anchor_id].position for m in measurements], float)
    observed = np.array([m.tof_measured for m in measurements])
    if config.fitness_mode == "range_residual":
        assumed_depth = -0.5 * (bounds.up[0] + bounds.up[1])
        observed = range_from_tof(observed, profile, -anchor_pos[:, 2], assumed_depth)

    rng = np.random.default_rng(seed)
    pop = rng.uniform(bounds.lows(), bounds.highs(), size=(config.population_size, 3))
    sigma = config.initial_sigma()

    best_fit = np.inf
    stagnant = 0
    generations_run = config.generations
    for gen in range(config.generations):
        fits = fitness(pop, anchor_pos, observed, profile, mode=config.fitness_mode)
        gen_best = float(fits.min())
        if gen_best < best_fit:
            best_fit = gen_best
            stagnant = 0
        else:
            stagnant += 1
        if trace is not None:
            trace(gen, best_fit, sigma)
        if best_fit < FITNESS_STOP or stagnant >= STAGNATION_LIMIT:
            generations_run = gen + 1
            break
        if gen < config.generations - 1:
            pop = evolve_generation(pop, fits, config, rng, sigma)
            sigma *= MUTATION_SIGMA_DECAY

    best_idx = int(np.argmin(fits))
    best = pop[best_idx].copy()

    decile = max(1, config.population_size // 10)
    elite_idx = np.argsort(fits, kind="stable")[:decile]
    dists = np.linalg.norm(pop[elite_idx] - best, axis=1)
    dispersion = float(np.sqrt(np.mean(dists**2)))
    if dispersion > DISPERSION_WARN_M:
        log.warning(
            "position fix poorly constrained: elite dispersion %.2f m exceeds %.2f m "
            "(degenerate anchor geometry?)",
            dispersion, DISPERSION_WARN_M,
        )

    return PositionEstimate(
        position=best,
        best_fitness=float(fits[best_idx]),
        population_dispersion=dispersion,
        generations_run=generations_run,
    )
