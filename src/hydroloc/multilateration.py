"""Beacon position estimation from anchor TOF measurements.

A real-coded genetic algorithm finds the basin of the position that best
explains the measured times of flight from at least four surface
anchors; Gauss-Newton (Foy 1976) polishes its best to the least-squares
optimum, and the TOF Jacobian gives the fix covariance. The anchors are
coplanar at the surface, so the residual is symmetric through the
surface plane; the search bounds require up <= 0, which makes the
underwater solution the unique feasible one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .propagation import ChannelProfile, pairwise_tof, range_from_tof, tof_jacobian
from .smallmat import eigh3, matmul
from .streams import Stream, box_muller

__all__ = [
    "Anchor",
    "SearchBounds",
    "GaConfig",
    "PositionEstimate",
    "fitness",
    "ga_localize",
    "evolve_generation",
]

log = logging.getLogger(__name__)

# Residual contribution of a candidate/anchor pair with no direct path:
# large but finite so the search surface stays totally ordered.
NO_PATH_PENALTY = 1e6
# Largest GA population, 50 times the largest a benchmark workload uses
# (40 to 200): a far larger one would fail in the GA, at its allocation.
POPULATION_MAX = 10_000
# Each parent is the best of a tournament of TOURNAMENT_SIZE; a pair is
# blended with probability CROSSOVER_RATE and each child coordinate
# mutates with probability MUTATION_RATE.
TOURNAMENT_SIZE = 3
CROSSOVER_RATE = 0.9
MUTATION_RATE = 0.3
MUTATION_SIGMA_DECAY = 0.96
# The best individual passes to the next generation unchanged.
ELITE_COUNT = 1
# The GA's best is polished every POLISH_EVERY generations; the GA stops
# once two polishes in a row land within POLISH_AGREE_M (m) of each other.
POLISH_EVERY = 3
POLISH_AGREE_M = 1e-3
# A polish takes at most GN_MAX_STEPS steps and stops on a step below
# GN_STEP_M (m). It starts at least GN_START_DEPTH_M (m) below the top
# face: on that face J's up column vanishes for coplanar surface
# anchors, so no step could leave it.
GN_MAX_STEPS = 5
GN_STEP_M = 1e-4
GN_START_DEPTH_M = 1.0
# A fix whose J^T J has a condition number above COND_WARN is logged as
# poorly constrained. Eigenvalues of J^T J below RANK_TOL times the
# largest are unobservable directions.
COND_WARN = 1e6
RANK_TOL = 1e-12


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
        if self.population_size > POPULATION_MAX:
            raise ValueError(
                f"population_size: must be <= {POPULATION_MAX}, got {self.population_size}"
            )
        if self.generations < 1:
            raise ValueError(f"generations: must be >= 1, got {self.generations}")
        if self.fitness_mode not in ("tof_residual", "range_residual"):
            raise ValueError(
                f"fitness_mode: must be 'tof_residual' or 'range_residual', "
                f"got {self.fitness_mode!r}"
            )

    def initial_sigma(self) -> float:
        return 0.1 * self.search_bounds.largest_extent()


@dataclass(frozen=True, eq=False, slots=True)
class PositionEstimate:
    """A solver fix: position, covariance and convergence diagnostics.

    covariance (m^2) is the sandwich J+ C J+^T, with J the TOF
    residual's Jacobian at the fix, from the call that chose it, and C
    the per-anchor TOF variance; its eigenvalues are clamped to
    [sigma_floor^2, largest search extent^2]. best_fitness is the fix's
    TOF residual (s^2) in either fitness mode. polishes counts the
    Gauss-Newton polishes run, the final one that gives the fix included.
    """

    position: np.ndarray = field(repr=False)
    best_fitness: float
    covariance: np.ndarray = field(repr=False)
    generations_run: int
    polishes: int


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
        total = _tof_fit(*pairwise_tof(profile, cands, anchor_pos), observed)
    elif mode == "range_residual":
        dist = np.linalg.norm(cands[:, None, :] - anchor_pos[None, :, :], axis=-1)
        total = ((dist - observed) ** 2).sum(axis=1)
    else:
        raise ValueError(f"unknown fitness mode {mode!r}")
    return float(total[0]) if scalar_in else total


def _tof_fit(tof, ok, observed):
    """Per-row sum of squared TOF residuals (s^2); a pair with no path adds NO_PATH_PENALTY."""
    return np.where(ok, (tof - observed) ** 2, NO_PATH_PENALTY).sum(axis=-1)


def evolve_generation(
    population: np.ndarray,
    fitness_values: np.ndarray,
    config: GaConfig,
    rng: Stream,
    sigma: float,
) -> np.ndarray:
    """One generation step: elitism, tournament, BLX-0.5, mutation, clamp.

    The ELITE_COUNT best individuals are copied verbatim; the remainder
    come from tournament-selected parents, blended with probability
    CROSSOVER_RATE (otherwise cloned from the first parent), then each
    coordinate is perturbed with probability MUTATION_RATE by Gaussian
    noise of the given sigma. Offspring are clamped to the search bounds.

    rng is anything whose random(shape) returns uniforms in [0, 1), such
    as a Stream or a numpy Generator. One call draws the generation's
    uniforms, a row per offspring: the two tournaments' contenders
    (floor(u n)), the crossover draw, the blend, the mutation mask and
    the two Box-Muller uniforms of each coordinate's mutation.
    """
    pop = np.asarray(population, float)
    fits = np.asarray(fitness_values, float)
    n = config.population_size
    if pop.shape != (n, 3):
        raise ValueError(f"population shape {pop.shape} does not match config ({n}, 3)")

    order = np.argsort(fits, kind="stable")
    elites = pop[order[:ELITE_COUNT]].copy()
    n_off = n - ELITE_COUNT

    t = 2 * TOURNAMENT_SIZE
    u = rng.random((n_off, t + 13))
    contenders = (u[:, :t] * n).astype(np.intp).reshape(n_off, 2, TOURNAMENT_SIZE)
    cross, mix, mutate = u[:, t:t + 1], u[:, t + 1:t + 4], u[:, t + 4:t + 7]
    normal = box_muller(u[:, t + 7:t + 10], u[:, t + 10:])
    best_slot = fits[contenders].argmin(axis=-1)
    parent_idx = np.take_along_axis(contenders, best_slot[..., None], axis=-1)[..., 0]
    p1 = pop[parent_idx[:, 0]]
    p2 = pop[parent_idx[:, 1]]

    span = np.abs(p1 - p2)
    lo = np.minimum(p1, p2) - 0.5 * span
    hi = np.maximum(p1, p2) + 0.5 * span
    children = np.where(cross < CROSSOVER_RATE, lo + mix * (hi - lo), p1)
    children = children + (mutate < MUTATION_RATE) * (sigma * normal)

    bounds = config.search_bounds
    children = np.clip(children, bounds.lows(), bounds.highs())
    return np.vstack([elites, children])


def _gauss_newton(x, residual, bounds: SearchBounds):
    """Polish x on residual(x) -> (r, J) and return the polished point.

    The start is a copy of x, at least GN_START_DEPTH_M below the top
    face (never below the bottom one); steps are clamped to the bounds.
    """
    lows, highs = bounds.lows(), bounds.highs()
    x = np.array(x, float)
    x[2] = min(x[2], max(highs[2] - GN_START_DEPTH_M, lows[2]))
    for _ in range(GN_MAX_STEPS):
        r, jac = residual(x)
        w, v = eigh3(matmul(jac.T, jac))
        # The least-norm step: none along unobservable directions.
        w = np.where(w > w[-1] * RANK_TOL, w, np.inf)
        delta = matmul(v, matmul(v.T, matmul(jac.T, -r)) / w)
        moved = np.clip(x + delta, lows, highs)
        step = math.dist(moved, x)
        x = moved
        if step < GN_STEP_M:
            break
    return x


def _fix_covariance(jac, tof_var, sigma_floor: float, extent: float) -> np.ndarray:
    """J+ C J+^T with C = diag(tof_var), eigenvalues clamped, symmetric.

    An unobservable direction of J gets the largest search extent as its
    sigma; a large condition number of J^T J is logged.
    """
    w, v = eigh3(matmul(jac.T, jac))
    cond = w[-1] / w[0] if w[0] > 0.0 else np.inf
    if cond > COND_WARN:
        log.warning(
            "position fix poorly constrained: condition number %.3g of J^T J exceeds %.3g "
            "(degenerate anchor geometry?)",
            cond, COND_WARN,
        )
    observable = w > w[-1] * RANK_TOL
    g = matmul(jac, v) / np.where(observable, w, np.inf)
    inner = matmul(g.T, tof_var[:, None] * g) + np.diag(np.where(observable, 0.0, extent**2))
    w, v = eigh3(matmul(matmul(v, inner), v.T))
    cov = matmul(v * np.clip(w, sigma_floor**2, extent**2), v.T)
    return 0.5 * (cov + cov.T)


def ga_localize(
    measurements,
    anchors,
    config: GaConfig,
    profile: ChannelProfile,
    seed: int,
    trace=None,
    *,
    tof_sigma: float = 0.0,
    anchor_sigma=(0.0, 0.0, 0.0),
    sigma_floor: float = 0.5,
) -> PositionEstimate:
    """Run the hybrid solver and return the fix with its covariance.

    Needs measurements from at least four distinct anchors, each with a
    finite, positive TOF. The anchors' positions, and in range_residual
    mode the ranges converted at the middle of the search depths, are
    built once. Every POLISH_EVERY generations Gauss-Newton polishes the
    GA's best on the GA's residual; the GA stops when two polishes in a
    row agree, or after config.generations. The fix is always a final
    TOF polish of the last polish (of the GA's best if none ran). One
    tof_jacobian call at the fix gives its TOF fit and the gradients
    through which the covariance maps tof_sigma (s) and the anchors'
    sigmas anchor_sigma (m, east/north/up), floored at sigma_floor (m).

    Deterministic given (measurements, anchors, config, seed). trace, if
    given, is called as trace(generation, best_fitness, sigma) after
    every evaluated generation.
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
    tofs = np.array([m.tof_measured for m in measurements])

    def tof_residual(x):
        tof, ok, jac, _ = tof_jacobian(profile, x, anchor_pos)
        return np.where(ok[0], tof[0] - tofs, 0.0), np.where(ok[0, :, None], jac[0], 0.0)

    if config.fitness_mode == "range_residual":
        assumed_depth = -0.5 * (bounds.up[0] + bounds.up[1])
        observed = range_from_tof(tofs, profile, -anchor_pos[:, 2], assumed_depth)

        def residual(x):
            diff = x - anchor_pos
            dist = np.linalg.norm(diff, axis=1)
            return dist - observed, diff / np.where(dist > 0.0, dist, 1.0)[:, None]
    else:
        observed, residual = tofs, tof_residual

    rng = Stream(seed)
    lows, highs = bounds.lows(), bounds.highs()
    pop = lows + rng.random((config.population_size, 3)) * (highs - lows)
    sigma = config.initial_sigma()

    last = None
    polishes = 0
    generations_run = config.generations
    for gen in range(config.generations):
        fits = fitness(pop, anchor_pos, observed, profile, mode=config.fitness_mode)
        if trace is not None:
            trace(gen, float(fits.min()), sigma)
        if gen == config.generations - 1:
            break
        if (gen + 1) % POLISH_EVERY == 0:
            x = _gauss_newton(pop[np.argmin(fits)], residual, bounds)
            polishes += 1
            agree = last is not None and math.dist(x, last) < POLISH_AGREE_M
            last = x
            if agree:
                generations_run = gen + 1
                break
        pop = evolve_generation(pop, fits, config, rng, sigma)
        sigma *= MUTATION_SIGMA_DECAY

    fix = _gauss_newton(pop[np.argmin(fits)] if last is None else last, tof_residual, bounds)
    # One kernel call scores the fix and gives the TOF gradients at both
    # ends of each pair.
    tof, ok, jac, anchor_jac = tof_jacobian(profile, fix, anchor_pos)
    tof_var = tof_sigma**2 + (anchor_jac[0] ** 2 * np.square(anchor_sigma)).sum(axis=-1)
    jac = np.where(ok[0, :, None], jac[0], 0.0)
    return PositionEstimate(
        position=fix,
        best_fitness=float(_tof_fit(tof, ok, tofs)[0]),
        covariance=_fix_covariance(jac, tof_var, sigma_floor, bounds.largest_extent()),
        generations_run=generations_run,
        polishes=polishes + 1,
    )
