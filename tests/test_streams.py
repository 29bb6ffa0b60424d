import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hydroloc.multilateration import GaConfig, SearchBounds, evolve_generation
from hydroloc.streams import Stream, box_muller, child_seed

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
N = 100_000


class TestStream:
    def test_splitmix64_reference_outputs(self):
        # The first outputs of SplitMix64 from state 0.
        uniforms = Stream(0).random((3,))
        expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert uniforms.tolist() == [(x >> 11) * 2.0**-53 for x in expected]

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, child_seed(42, 2, 7, 3)])
    def test_float_and_array_draws_are_bit_equal(self, seed):
        stream = Stream(seed)
        floats = [stream.random() for _ in range(50)]
        normals = [stream.standard_normal() for _ in range(500)]
        stream = Stream(seed)
        assert stream.random((50,)).tolist() == floats
        assert stream.standard_normal((100, 5)).ravel().tolist() == normals

    def test_draws_continue_across_calls(self):
        stream = Stream(9)
        parts = [stream.random(), *stream.random((2, 3)).ravel(), stream.random()]
        assert Stream(9).random((8,)).tolist() == parts

    def test_uniforms_in_unit_interval(self):
        u = Stream(5).random((N,))
        assert u.min() >= 0.0 and u.max() < 1.0
        # The largest 53-bit uniform, and Box-Muller at both ends, stay finite.
        top = (2**53 - 1) * 2.0**-53
        assert top < 1.0
        assert np.isfinite(box_muller(np.array([0.0, top]), np.array([top, 0.0]))).all()

    def test_normal_moments(self):
        # Each within five standard errors of N(0, 1) over 1e5 draws.
        z = Stream(11).standard_normal((N,))
        mean, var = z.mean(), z.var()
        kurtosis = ((z - mean) ** 4).mean() / var**2
        assert abs(mean) < 5 * np.sqrt(1 / N)
        assert abs(var - 1.0) < 5 * np.sqrt(2 / N)
        assert abs(kurtosis - 3.0) < 5 * np.sqrt(24 / N)

    @pytest.mark.parametrize("tags", [(2, 7, 3), (2, 7, 4), (2, 8, 3), (4, 7), (1, 7)])
    def test_adjacent_child_seeds_uncorrelated(self, tags):
        # The stream of one child seed against the next epoch's or anchor's.
        nxt = tags[:-1] + (tags[-1] + 1,)
        a = Stream(child_seed(42, *tags)).random((N,))
        b = Stream(child_seed(42, *nxt)).random((N,))
        assert abs(np.corrcoef(a, b)[0, 1]) < 5 / np.sqrt(N)


class TestTournamentIndices:
    class Constant:
        """An rng whose every uniform is the same value."""

        def __init__(self, value):
            self.value = value

        def random(self, shape):
            return np.full(shape, self.value)

    @pytest.mark.parametrize("n", [4, 5, 40, 100, 199, 200, 4097])
    def test_floor_of_the_largest_uniform_is_below_n(self, n):
        top = (2**53 - 1) * 2.0**-53
        assert int(top * n) == n - 1
        # Every contender is then the last individual, which evolve_generation
        # must index without error.
        bounds = SearchBounds(east=(-1.0, 1.0), north=(-1.0, 1.0), up=(-1.0, 0.0))
        pop = np.zeros((n, 3))
        pop[-1] = (0.5, -0.5, -0.5)
        for value in (0.0, top):
            children = evolve_generation(pop, np.arange(n, dtype=float),
                                         GaConfig(search_bounds=bounds, population_size=n),
                                         self.Constant(value), 0.1)
            assert children.shape == (n, 3)
        assert np.array_equal(children[1:, :2], np.tile((0.5, -0.5), (n - 1, 1)))

    def test_stream_tournament_indices_inside_population(self):
        n = 40
        u = Stream(3).random((N, 6))
        idx = (u * n).astype(np.intp)
        assert idx.min() == 0 and idx.max() == n - 1
        assert np.bincount(idx.ravel(), minlength=n).min() > 0.9 * u.size / n


def test_a_run_loads_neither_numpy_random_nor_hashlib():
    # numpy.random pulls in secrets -> hashlib -> OpenSSL's libcrypto; a run
    # draws from hydroloc.streams and loads neither.
    scenario = str(SCENARIO_DIR / "canonical_noiseless.yaml")
    code = (
        "import sys\n"
        "from hydroloc.pipeline import run_simulation\n"
        "from hydroloc.scenario import load_scenario\n"
        f"records, _ = run_simulation(load_scenario({scenario!r}))\n"
        "assert records\n"
        "print(sorted({'numpy.random', '_hashlib'} & set(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
