import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzphase import (
    IDEAL,
    NoiseChannel,
    Policy,
    PsoConfig,
    apply_policy_step,
    estimate_sharpness,
    make_generator,
    pso_step,
    run_batch,
    train_policy,
)
from mzphase.pso import _sharpness

from _oracles import (
    exact_go_sharpness,
    exact_policy_resultant,
    exact_policy_sharpness,
    optimal_ideal_sharpness,
    policy_sharpness_by_angles,
    pso_step_per_particle,
)

TWO_PI = 2 * math.pi


def make_swarm(positions, velocities=None, best_positions=None, best_fitness=-math.inf):
    """Swarm record array as train_policy builds it; the personal bests
    default to the positions with fitness -inf, the velocities to 0."""
    positions = np.array(positions, dtype=float)
    size, n = positions.shape
    return np.rec.fromarrays(
        [
            positions,
            np.zeros((size, n)) if velocities is None else np.array(velocities, dtype=float),
            positions if best_positions is None else np.array(best_positions, dtype=float),
            np.broadcast_to(np.asarray(best_fitness, dtype=float), size),
        ],
        dtype=[
            ("position", float, (n,)),
            ("velocity", float, (n,)),
            ("best_position", float, (n,)),
            ("best_fitness", float),
        ],
    )


class ZeroDrawGenerator:
    """Stub rng whose uniform draws are all zero; spawn yields more stubs."""

    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)

    def spawn(self, n):
        return [ZeroDrawGenerator() for _ in range(n)]


def test_apply_policy_step_directions():
    policy = Policy(np.full(5, 0.5))
    assert apply_policy_step(policy, 1.0, 0, 2) == pytest.approx(0.5)
    assert apply_policy_step(policy, 1.0, 1, 2) == pytest.approx(1.5)
    zero = Policy(np.zeros(5))
    assert apply_policy_step(zero, 1.2345, 0, 1) == pytest.approx(1.2345)
    with pytest.raises(ValueError):
        apply_policy_step(policy, 0.0, 0, 6)
    with pytest.raises(ValueError):
        apply_policy_step(policy, 0.0, 0, 0)


def test_apply_policy_step_never_returns_two_pi():
    policy = Policy([0.3])
    d = float(policy.deltas[0])
    # the step lands a tiny negative phase, which x % 2pi rounds up to 2pi
    assert apply_policy_step(policy, float(np.nextafter(d, 0.0)), 0, 1) == 0.0


def test_policy_wraps_deltas():
    policy = Policy(np.array([4.0, -4.0, math.pi]))
    assert np.all(policy.deltas > -math.pi)
    assert np.all(policy.deltas <= math.pi)
    assert policy.deltas[0] == pytest.approx(4.0 - TWO_PI)
    assert policy.deltas[2] == pytest.approx(math.pi)


def test_policy_file_roundtrip(tmp_path):
    policy = Policy(
        np.array([0.3, -0.2, 1.1]),
        channel=NoiseChannel.depolarizing(0.1),
        config={"seed": 5},
        sharpness=0.87,
    )
    path = tmp_path / "policy.json"
    policy.save(path)
    loaded = Policy.load(path)
    assert np.array_equal(loaded.deltas, policy.deltas)
    assert loaded.channel == policy.channel
    assert loaded.sharpness == policy.sharpness
    assert loaded.config == {"seed": 5}


def test_policy_rejects_non_finite_increments(tmp_path):
    with pytest.raises(ValueError):
        Policy(np.array([math.nan, 0.1]))
    path = tmp_path / "policy.json"
    path.write_text('{"n": 2, "deltas": [NaN, 0.1]}')
    with pytest.raises(ValueError):
        Policy.load(path)


def test_estimate_sharpness_range_and_zero_policy():
    rng = make_generator(30)
    zeros = Policy(np.zeros(10))
    s = estimate_sharpness(zeros, IDEAL, 20000, rng)
    # the all-zeros policy pins the estimate at 0; errors are uniform
    assert 0.0 <= s < 0.02


def test_estimate_sharpness_single_probe_is_symmetric():
    # with one probe the estimate is the constant -d, so the error is
    # uniform and sharpness vanishes for every increment choice
    rng = make_generator(31)
    values = [
        estimate_sharpness(Policy(np.array([d])), IDEAL, 20000, rng)
        for d in (0.0, 0.3, 2.0)
    ]
    assert all(v < 0.02 for v in values)


def test_estimate_sharpness_rejects_bad_sample_count():
    with pytest.raises(ValueError):
        estimate_sharpness(Policy(np.zeros(3)), IDEAL, 0, make_generator(0))


def test_estimate_sharpness_error_scales_with_sample_count():
    # Monte Carlo standard error shrinks like K^(-1/2)
    policy = Policy(np.full(10, 0.5))
    stds = {}
    for k in (100, 1000):
        values = [
            estimate_sharpness(policy, IDEAL, k, make_generator([60, k, rep]))
            for rep in range(40)
        ]
        assert all(0.0 <= v <= 1.0 for v in values)
        stds[k] = np.std(values, ddof=1)
    ratio = stds[100] / stds[1000]
    assert 1.5 < ratio < 7.0  # sqrt(10) ~ 3.16 up to sampling noise


def test_pso_step_zero_attraction_moves_by_inertia():
    # with both random coefficients at zero the velocity is unchanged
    # and the position advances by omega * velocity
    config = PsoConfig(swarm_size=2, omega=0.7, velocity_clamp=math.pi).validate()
    swarm = make_swarm(
        [[1.0, -2.0], [0.0, 0.0]], [[0.5, 0.25], [-0.1, 0.1]], best_fitness=0.5
    )
    pso_step(swarm, config, lambda pos, rngs: np.zeros(len(pos)), ZeroDrawGenerator())
    assert np.allclose(swarm[0].velocity, [0.5, 0.25])
    assert np.allclose(swarm[0].position, [1.0 + 0.35, -2.0 + 0.175])
    assert np.allclose(swarm[1].position, [-0.07, 0.07])


def test_pso_step_fixed_point_at_own_best():
    config = PsoConfig(swarm_size=2).validate()
    swarm = make_swarm([[0.4], [0.4]], best_fitness=1.0)
    rng = make_generator(32)
    for _ in range(5):
        pso_step(swarm, config, lambda pos, rngs: np.zeros(len(pos)), rng)
    assert np.allclose(swarm[0].position, 0.4)
    assert np.allclose(swarm[1].position, 0.4)


def test_pso_step_linear_motion_with_unit_inertia_and_zero_draws():
    config = PsoConfig(swarm_size=2, omega=1.0).validate()
    p0 = np.array([0.0, 1.0])
    v0 = np.array([0.2, -0.1])
    swarm = make_swarm([p0, -p0], [v0, -v0])
    for t in range(1, 6):
        pso_step(swarm, config, lambda pos, rngs: np.zeros(len(pos)), ZeroDrawGenerator())
        assert np.allclose(swarm[0].position, p0 + t * v0)
        assert np.allclose(swarm[0].velocity, v0)


def test_pso_step_velocity_clamp():
    config = PsoConfig(swarm_size=2, velocity_clamp=0.05).validate()
    swarm = make_swarm([[0.0], [0.0]], best_positions=[[5.0], [-5.0]], best_fitness=[10.0, 1.0])
    rng = make_generator(33)
    pso_step(swarm, config, lambda pos, rngs: np.zeros(len(pos)), rng)
    for particle in swarm:
        assert np.max(np.abs(particle.velocity)) <= 0.05 + 1e-15


def test_pso_step_personal_best_monotone():
    config = PsoConfig(swarm_size=4, fitness_samples=1).validate()
    rng = make_generator(34)
    swarm = make_swarm(rng.uniform(-config.init_range, config.init_range, (4, 3)))

    noisy = make_generator(35)

    def jitter_fitness(pos, rngs):
        return noisy.random(len(pos))

    bests = []
    for _ in range(20):
        pso_step(swarm, config, jitter_fitness, rng)
        bests.append(max(p.best_fitness for p in swarm))
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))


def test_pso_step_quadratic_bowl_convergence():
    # recorded best reaches the optimum of a 1-D bowl within 1e-2
    target = 1.234
    config = PsoConfig(
        swarm_size=2,
        omega=0.7,
        beta1=1.5,
        alpha2=1.5,
        neighborhood_radius=2,
        velocity_clamp=math.pi,
    ).validate()
    rng = make_generator(1)
    swarm = make_swarm(rng.uniform(-config.init_range, config.init_range, (2, 1)))

    def fitness(pos, rngs):
        return -((pos[:, 0] - target) ** 2)

    for _ in range(200):
        pso_step(swarm, config, fitness, rng)
    best = max(swarm, key=lambda p: p.best_fitness)
    assert abs(best.best_position[0] - target) < 1e-2


def _constant_fitness(pos, rngs):
    return np.full(len(pos), 0.5)


def _coarse_fitness(pos, rngs):
    # rounded to 0.1 so distinct positions often tie
    return np.round(np.cos(pos).sum(axis=1), 1)


def _spawned_fitness(pos, rngs):
    return np.array([rng.random() for rng in rngs]) + np.sin(pos).sum(axis=1)


@pytest.mark.parametrize(
    "fitness, size, n, radius",
    [
        (_constant_fitness, 7, 3, 2),  # tied bests at distinct positions
        (_coarse_fitness, 8, 3, 2),
        (_spawned_fitness, 6, 4, 1),
        (_coarse_fitness, 5, 2, 0),
        (_coarse_fitness, 6, 3, 3),  # radius = swarm/2: both ends meet
        (_spawned_fitness, 5, 2, 9),  # radius > swarm/2, clipped to 2
    ],
)
def test_pso_step_matches_per_particle_loops_bit_for_bit(fitness, size, n, radius):
    # bests start at -inf, as in training, and the velocities off zero,
    # so no case sits at a fixed point; every field and the master
    # generator must agree bit for bit after each step
    config = PsoConfig(swarm_size=size, neighborhood_radius=radius, omega=0.9).validate()
    start = make_generator([43, size]).uniform(-1.5, 1.5, (2, size, n))
    swarm = make_swarm(*start)
    particles = [
        SimpleNamespace(
            position=x.copy(), velocity=v.copy(), best_position=x.copy(),
            best_fitness=-math.inf,
        )
        for x, v in zip(*start)
    ]
    rng, reference_rng = make_generator(44), make_generator(44)
    for _ in range(6):
        pso_step(swarm, config, fitness, rng)
        pso_step_per_particle(particles, config, fitness, reference_rng)
        for field in ("position", "velocity", "best_position"):
            expected = np.stack([getattr(p, field) for p in particles])
            assert swarm[field].tobytes() == expected.tobytes(), field
        expected = np.array([p.best_fitness for p in particles])
        assert swarm.best_fitness.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_pso_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(swarm_size=1).validate()
    with pytest.raises(ValueError):
        PsoConfig(omega=0.0).validate()
    with pytest.raises(ValueError):
        PsoConfig(fitness_samples=0).validate()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["omega", "beta1", "alpha2", "velocity_clamp", "init_range"])
def test_pso_config_rejects_non_finite_settings(name, value):
    with pytest.raises(ValueError, match="finite"):
        PsoConfig(**{name: value}).validate()


def test_train_policy_deterministic_and_wrapped():
    config = PsoConfig(swarm_size=6, iterations=15, fitness_samples=50, seed=7)
    a = train_policy(5, config=config)
    b = train_policy(5, config=config)
    assert np.array_equal(a.deltas, b.deltas)
    assert a.sharpness == b.sharpness
    assert np.all((a.deltas > -math.pi) & (a.deltas <= math.pi))
    assert a.config == b.config
    assert a.config["seed"] == 7


# Recorded from the per-particle evaluator that preceded swarm-batched
# scoring; pins each child generator's draw order on every channel.
GOLDEN_TRAINING = {
    "ideal": (
        [-0.042224267480844624, 1.1937645462558684, 0.6373782922550046,
         0.2296758343406733, 0.3172407280301286],
        0.8695033507685683,
    ),
    "depolarizing:0.2": (
        [-0.6660760920931366, -0.7867852970900913, -0.4106278025059602,
         -0.8210406934565038, -0.6493645942322961],
        0.7593790705605027,
    ),
    "phase:0.5": (
        [0.4375312883938771, 0.6500222939625031, 1.1678049363504592,
         0.3827420562591728, 0.3165865977026545],
        0.7709079102953883,
    ),
}


@pytest.mark.parametrize("spec", sorted(GOLDEN_TRAINING))
def test_train_policy_matches_golden_training(spec):
    deltas, sharpness = GOLDEN_TRAINING[spec]
    config = PsoConfig(swarm_size=6, iterations=15, fitness_samples=50, seed=7)
    policy = train_policy(5, channel=NoiseChannel.parse(spec), config=config)
    assert np.allclose(policy.deltas, deltas, rtol=0.0, atol=1e-12)
    assert policy.sharpness == pytest.approx(sharpness, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("spec", ["ideal", "depolarizing:0.2", "phase:0.5"])
def test_swarm_sharpness_matches_angle_oracle_row_by_row(spec):
    # rotating phasors changes rounding only; each row uses only its own
    # position and generator
    channel = NoiseChannel.parse(spec)
    positions = make_generator(41).uniform(-1.5, 1.5, (4, 6))
    batched = _sharpness(positions, channel, 300, make_generator(42).spawn(4))
    for row, value, rng in zip(positions, batched, make_generator(42).spawn(4)):
        expected = policy_sharpness_by_angles(row, channel, 300, rng)
        assert value == pytest.approx(expected, rel=0.0, abs=1e-12)


def test_train_policy_warns_past_soft_limit():
    config = PsoConfig(swarm_size=2, iterations=1, fitness_samples=5, seed=1)
    with pytest.warns(UserWarning, match="50"):
        train_policy(51, config=config)


def test_trained_policy_beats_all_zeros_significantly():
    # test-scale training must separate from the non-adaptive zero policy
    # by far more than 5 standard errors of the sharpness estimator
    config = PsoConfig(swarm_size=20, iterations=100, fitness_samples=300, seed=11)
    trained = train_policy(10, config=config)
    k = 4000
    s_trained = estimate_sharpness(trained, IDEAL, k, make_generator(40))
    zeros = Policy(np.zeros(10))
    s_zeros = estimate_sharpness(zeros, IDEAL, k, make_generator(40))
    # standard error of a sharpness estimate is at most ~ 1/sqrt(2k)
    se = 1.0 / math.sqrt(k)
    assert s_trained - s_zeros > 5 * se
    assert s_trained > 0.8


@pytest.mark.parametrize("spec", ["ideal", "depolarizing:0.2", "phase:0.5"])
@pytest.mark.parametrize("size", [1, 7, 41])
@pytest.mark.parametrize("k_samples", [50, 333, 1000, 20000])
def test_blocked_fitness_equals_row_at_a_time(spec, size, k_samples):
    # a row draws only from its own generator, so scoring the swarm in
    # row blocks gives each row's own value and leaves its stream where
    # scoring it alone does; at the default 1000 samples 41 rows run in
    # blocks of 16, 16 and 9
    channel = NoiseChannel.parse(spec)
    positions = make_generator([43, size]).uniform(-1.5, 1.5, (size, 6))
    blocked_rngs = make_generator(44).spawn(size)
    blocked = _sharpness(positions, channel, k_samples, blocked_rngs)
    for i, rng in enumerate(make_generator(44).spawn(size)):
        alone = _sharpness(positions[i:i + 1], channel, k_samples, [rng])
        assert blocked[i].hex() == alone[0].hex()
        assert rng.bit_generator.state == blocked_rngs[i].bit_generator.state


@pytest.mark.parametrize("spec", ["ideal", "depolarizing:0.2", "phase:0.5"])
def test_fitness_evaluation_memory_peak(spec):
    # one default-size evaluation (40 rows, 1000 samples) peaked at 2.46 MiB
    # when every probe allocated whole-swarm temporaries
    positions = make_generator(45).uniform(-1.5, 1.5, (40, 20))
    rngs = make_generator(46).spawn(40)
    tracemalloc.start()
    try:
        _sharpness(positions, NoiseChannel.parse(spec), 1000, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.46 * 2 ** 20 / 2


@pytest.mark.parametrize(
    "payload", ["[0.1, 0.2]", '{"deltas": [0.1], "channel": "ideal"}'],
)
def test_policy_load_rejects_non_object_payloads(tmp_path, payload):
    path = tmp_path / "policy.json"
    path.write_text(payload)
    with pytest.raises(ValueError, match="JSON object"):
        Policy.load(path)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2 ** 63),
    spec=st.sampled_from(["ideal", "depolarizing:0.3", "phase:0.7"]),
    deltas=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
    k_samples=st.integers(1, 3000),
)
def test_same_seed_gives_same_sharpness_bits(seed, spec, deltas, k_samples):
    policy, channel = Policy(deltas), NoiseChannel.parse(spec)
    first, second = (
        estimate_sharpness(policy, channel, k_samples, make_generator(seed)) for _ in range(2)
    )
    assert first.hex() == second.hex()


@pytest.mark.parametrize("phi", [0.7, 2.6])
@pytest.mark.parametrize(
    "channel", [IDEAL, NoiseChannel.depolarizing(0.25), NoiseChannel.phase(1.0)],
    ids=lambda c: c.kind,
)
def test_policy_batches_match_the_exact_resultant(channel, phi):
    n, m = 10, 4000
    deltas = 0.3 + 0.6 * np.cos(np.arange(n))
    _, records = run_batch(phi, n, Policy(deltas), m, sample_channel=channel, grid_size=64,
                           base_seed=1)
    z = np.exp(1j * np.array([r.final_estimate for r in records]))
    # each of the real and imaginary parts within 4 standard errors
    want = exact_policy_resultant(deltas, phi, channel)
    for part, value in ((z.real, want.real), (z.imag, want.imag)):
        se = part.std(ddof=1) / math.sqrt(m)
        assert abs(part.mean() - value) < 4.0 * se, (part.mean(), value, se)


@pytest.mark.parametrize("n", [4, 8])
def test_a_default_trained_policy_ranks_between_the_floor_and_go(n):
    # the paper's low-N ranking on the ideal channel, scored exactly: the
    # canonical floor < the default-trained policy < go with its default
    # real-part fallback (sigma 0.5871 < 0.7490 < 0.9073 at n = 4 and
    # 0.3711 < 0.4581 < 0.5870 at n = 8)
    policy = train_policy(n, IDEAL, PsoConfig(seed=0))
    floor, trained, go = (
        math.sqrt(s ** -2 - 1.0)
        for s in (optimal_ideal_sharpness(n), exact_policy_sharpness(policy.deltas, IDEAL),
                  exact_go_sharpness(n, IDEAL))
    )
    assert floor < trained < go
