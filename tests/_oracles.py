"""Independent numerical oracles used by the test suite.

These deliberately avoid the library's own code paths: quadrature on
dense grids, finite differences, and direct formula evaluation. Two
exceptions: exact_go_sharpness enumerates the outcomes of go's feedback
rule and so takes the rule's offset from the library by default, and
replay_summaries replays a run on a small PosteriorGrid, which is exact
there.
"""

import cmath
import math
from functools import lru_cache

import numpy as np

from mzphase import IDEAL, PosteriorGrid, UndefinedMeanError, feedback_offset


@lru_cache(maxsize=None)
def _quadrature_window(sigma, width, points):
    """Abscissae phi, phi^2, their spacings and the normalised N(0, sigma^2)
    prior, shared by every offset of one sigma."""
    half_width = max(width * sigma, 2.0)
    phi = np.linspace(-half_width, half_width, points)
    prior = np.exp(-0.5 * (phi / sigma) ** 2)
    prior /= np.trapezoid(prior, phi)
    arrays = phi, phi * phi, np.diff(phi), prior
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _trapezoid(y, spacings):
    """np.trapezoid(y, phi) with the spacings of phi given: the same ops."""
    return (spacings * (y[1:] + y[:-1]) / 2.0).sum()


def expected_posterior_variance(offset, sigma, width=14.0, points=40001):
    """One-step expected posterior variance for a Gaussian prior N(0, sigma^2)
    and click likelihoods cos^2/sin^2((phi - offset)/2), by quadrature.

    Integrates over the real line (window wide enough that the Gaussian
    tail mass is negligible), computing sum_x P(x) Var(phi | x).
    """
    phi, phi2, spacings, prior = _quadrature_window(sigma, width, points)
    half = (phi - offset) / 2.0
    total = 0.0
    for posterior in (np.cos(half), np.sin(half)):
        posterior *= posterior  # the click likelihood
        posterior *= prior  # the joint density
        p_x = _trapezoid(posterior, spacings)
        if p_x < 1e-300:
            continue
        posterior /= p_x
        m1 = _trapezoid(phi * posterior, spacings)
        m2 = _trapezoid(phi2 * posterior, spacings)
        total += p_x * (m2 - m1 * m1)
    return total


def expected_posterior_variance_closed_form(offset, sigma):
    """expected_posterior_variance in closed form, for an offset D or an
    array of them: sigma^2 - sigma^4 e^{-sigma^2} sin^2 D / (1 - e^{-sigma^2} cos^2 D)."""
    decay = math.exp(-sigma * sigma)
    return sigma ** 2 - sigma ** 4 * decay * np.sin(offset) ** 2 / (
        1.0 - decay * np.cos(offset) ** 2
    )


def argmin_expected_posterior_variance(sigma):
    """Argmin of the expected posterior variance over offsets in (-pi, 0),
    from its closed form. With c = cos^2 D the subtracted term is
    proportional to (1 - c) / (1 - e^{-sigma^2} c), which decreases in c,
    so the minimum sits at c = 0: at -pi/2 exactly, for every sigma > 0."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    return -math.pi / 2


def numeric_fisher_information(probability_of_zero, grid_points=10 ** 4, step=1e-5):
    """Fisher information maximized over the phase difference.

    probability_of_zero(delta) is the outcome-0 probability at phase
    difference delta. Uses central differences and drops grid points
    where an outcome probability is too small for a stable quotient.
    """
    deltas = np.arange(grid_points) * (2.0 * math.pi / grid_points)
    best = 0.0
    for delta in deltas:
        p0 = probability_of_zero(delta)
        p1 = 1.0 - p0
        if p0 < 1e-6 or p1 < 1e-6:
            continue
        d0 = (probability_of_zero(delta + step) - probability_of_zero(delta - step)) / (2 * step)
        info = d0 * d0 * (1.0 / p0 + 1.0 / p1)
        if info > best:
            best = info
    return best


def wrapped_normal_weights(phis, mu, sigma, images=6):
    """Wrapped normal density sampled at grid points (unnormalized)."""
    out = np.zeros_like(phis)
    for k in range(-images, images + 1):
        out += np.exp(-0.5 * ((phis - mu + 2.0 * math.pi * k) / sigma) ** 2)
    return out


def policy_sharpness_by_angles(deltas, channel, k_samples, rng):
    """Monte Carlo sharpness of one policy, tracking Phi_k as an angle.

    Recomputes cos^2((phi - Phi_k) / 2) at every probe and draws from rng
    in the documented order: the true phases, then per probe the phase
    kick's two uniforms, the click, and the depolarizing noise and fair
    coins.
    """
    phases = rng.uniform(0.0, 2.0 * math.pi, k_samples)
    feedback = np.zeros(k_samples)
    clicks = np.zeros(k_samples, dtype=bool)
    for d in deltas:
        feedback = feedback - np.where(clicks, -d, d)
        kicked = feedback
        if channel.kind == "phase":
            u1 = 1.0 - rng.random(k_samples)
            u2 = rng.random(k_samples)
            kick = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
            kicked = feedback + channel.kappa * kick
        clicks = rng.random(k_samples) >= np.cos((phases - kicked) / 2.0) ** 2
        if channel.kind == "depolarizing":
            noisy = rng.random(k_samples) < channel.p
            clicks = np.where(noisy, rng.random(k_samples) < 0.5, clicks)
    return float(np.abs(np.exp(1j * (phases - feedback)).sum()) / k_samples)


def cdf_draw_index(weights, u):
    """Grid index a draw u picks from the full cumulative sum of weights:
    the first entry above u, clamped to the last index."""
    idx = int(np.searchsorted(np.cumsum(weights), u, side="right"))
    return min(idx, len(weights) - 1)


def pso_step_per_particle(particles, config, fitness, rng):
    """One swarm iteration over a list of particles, one particle at a time.

    Each particle carries position, velocity and best_position arrays
    and a best_fitness float, updated in place. This is the loop form of
    the update: personal bests by strict >, the ring's local best by a
    strict-> scan from the particle itself over offsets -r..r, then xi1
    and xi2 drawn per particle. The array update in mzphase.pso must
    match it bit for bit.
    """
    positions = np.stack([particle.position for particle in particles])
    observed = fitness(positions, rng.spawn(len(particles)))
    for particle, value in zip(particles, observed):
        if value > particle.best_fitness:
            particle.best_fitness = float(value)
            particle.best_position = particle.position.copy()

    size = len(particles)
    radius = min(config.neighborhood_radius, size // 2)
    local_bests = []
    for i in range(size):
        best = particles[i]
        for d in range(-radius, radius + 1):
            cand = particles[(i + d) % size]
            if cand.best_fitness > best.best_fitness:
                best = cand
        local_bests.append(best.best_position)

    clamp = config.velocity_clamp
    for particle, lbest in zip(particles, local_bests):
        xi1 = rng.random(particle.position.size)
        xi2 = rng.random(particle.position.size)
        particle.velocity = (
            config.beta1 * xi1 * (particle.best_position - particle.position)
            + config.alpha2 * xi2 * (lbest - particle.position)
            + particle.velocity
        )
        np.clip(particle.velocity, -clamp, clamp, out=particle.velocity)
        particle.position = config.omega * particle.velocity + particle.position


def exact_go_sharpness(n, sample_channel, model_channel=IDEAL, grid_size=None,
                       offset=feedback_offset):
    """Exact |E e^{i(phi - mu)}| of an n-probe go run with the alternate
    sign, phi uniform, by enumerating its 2^n outcome sequences. offset
    maps a posterior's sigma to the signed feedback offset (go's rule by
    default), so other rules can be scored on the same tree.

    go's first feedback is uniform and every later one a function of the
    outcomes, so by rotation covariance Phi_1 = 0 loses nothing. The tree
    is walked breadth first: each node holds its posterior under the
    model channel and its path likelihood under the sample channel, on
    a grid of grid_size points (n + 4 by default). Both are
    trigonometric polynomials of degree <= n, so the grid's sums of them
    and of their products with e^{i phi} are exact. The sharpness is
    |sum_x e^{-i mu(x)} integral P_sample(x | phi) e^{i phi} dphi / 2 pi|,
    with mu(x) the final posterior's circular mean.

    Raises ValueError at a node whose resultant is below 1e-12: go draws
    a random feedback there (or holds the previous estimate at the last
    step), which the enumeration does not follow.
    """
    size = n + 4 if grid_size is None else grid_size
    phis = np.arange(size) * (2.0 * math.pi / size)
    phasors = np.exp(1j * phis)
    model = np.ones((1, size))
    sample = np.ones((1, size))
    feedback = np.zeros(1)

    def children(weights, channel):
        # outcome 0 then outcome 1: p(x) = (1 +- v cos(phi - Phi)) / 2
        v = channel.visibility
        return np.concatenate([weights * (1.0 + v * fringe), weights * (1.0 - v * fringe)]) / 2.0

    def means(weights):
        z = weights @ phasors / weights.sum(axis=1)
        r = np.abs(z)
        if r.min() < 1e-12:
            raise ValueError("a node's posterior has a zero resultant: go draws a random feedback")
        return np.angle(z), np.sqrt(np.maximum(1.0 / (r * r) - 1.0, 0.0))

    for k in range(1, n + 1):
        if k > 1:
            sign = 1.0 if k % 2 == 0 else -1.0
            mu, sigma = means(model)
            feedback = mu + sign * np.array([offset(s) for s in sigma])
        fringe = np.cos(phis - feedback[:, None])
        model = children(model, model_channel)
        model /= model.sum(axis=1, keepdims=True)
        sample = children(sample, sample_channel)
    mu, _ = means(model)
    return float(abs(np.exp(-1j * mu) @ (sample @ phasors)) / size)


def _binomial_resultant(n, phi, sample_channel, estimate):
    """E e^{i estimate(n0)} of an estimate that is a function of the count
    n0 of outcome 0 in n probes at Phi = 0, where n0 follows
    Binomial(n, (1 + v cos phi) / 2) under a sample channel of visibility v."""
    p0 = (1.0 + sample_channel.visibility * math.cos(phi)) / 2.0
    return sum(
        math.comb(n, n0) * p0 ** n0 * (1.0 - p0) ** (n - n0) * cmath.exp(1j * estimate(n0))
        for n0 in range(n + 1)
    )


def exact_inversion_resultant(n, phi, sample_channel):
    """Exact E e^{i est} of the inversion estimate 2 acos sqrt(n0 / n) of
    n probes at the true phase phi."""
    return _binomial_resultant(n, phi, sample_channel, lambda n0: 2.0 * math.acos(math.sqrt(n0 / n)))


def exact_bayes_fixed_resultant(n, phi, sample_channel):
    """Exact E e^{i est} of the fixed-feedback Bayesian estimate of n probes
    at the true phase phi: the circular mean of the ideal-model posterior
    on [0, pi] after n0 zeros and n1 = n - n0 ones.

    That posterior makes t = cos^2(phi / 2) Beta(n0 + 1/2, n1 + 1/2), so
    E cos phi = (2 n0 + 1) / (n + 1) - 1 and
    E sin phi = 2 B(n0 + 1, n1 + 1) / B(n0 + 1/2, n1 + 1/2).
    """
    def log_beta(a, b):
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def estimate(n0):
        n1 = n - n0
        sin = 2.0 * math.exp(log_beta(n0 + 1, n1 + 1) - log_beta(n0 + 0.5, n1 + 0.5))
        return math.atan2(sin, (2 * n0 + 1) / (n + 1) - 1.0)

    return _binomial_resultant(n, phi, sample_channel, estimate)


def exact_policy_resultant(deltas, phi, channel):
    """Exact E e^{i Phi_n} of the estimate Phi_n of the n = len(deltas)
    step policy at the true phase phi, under a channel of visibility v.

    Phi_k = Phi_{k-1} - (-1)^{x_{k-1}} d_k turns by -d or +d with
    probability (1 +- v cos(phi - Phi_{k-1})) / 2, so M_k(m) = E e^{i m Phi_k}
    obeys M_1(m) = e^{-i m d_1} (Phi_0 = 0, x_0 = 0) and
    M_{k+1}(m) = cos(m d) M_k(m) - (i v / 2) sin(m d) [e^{i phi} M_k(m - 1)
    + e^{-i phi} M_k(m + 1)], with d = d_{k+1}. M_n(1) needs M_1 on
    m = 2 - n .. n; each step narrows the range by one at each end.
    """
    n = len(deltas)
    v = channel.visibility
    m = np.arange(2 - n, n + 1)
    moments = np.exp(-1j * m * deltas[0])
    for d in deltas[1:]:
        m = m[1:-1]
        neighbours = cmath.exp(1j * phi) * moments[:-2] + cmath.exp(-1j * phi) * moments[2:]
        moments = np.cos(m * d) * moments[1:-1] - 0.5j * v * np.sin(m * d) * neighbours
    [value] = moments
    return complex(value)


def exact_policy_sharpness(deltas, channel):
    """Exact phase-averaged |E e^{i(phi - Phi_n)}| of the n = len(deltas)
    step policy: the mean of e^{i phi} conj(exact_policy_resultant) over
    n + 3 equispaced phases. The integrand is a trigonometric polynomial
    of degree <= n + 1 in phi, so that mean is its exact phase average."""
    count = len(deltas) + 3
    phis = np.arange(count) * (2.0 * math.pi / count)
    return abs(sum(
        cmath.exp(1j * phi) * exact_policy_resultant(deltas, phi, channel).conjugate()
        for phi in phis
    )) / count


def optimal_ideal_sharpness(n):
    """S_n = 2^{-n} sum_k sqrt(C(n, k) C(n, k + 1)): the largest phase-averaged
    |E e^{i(est - phi)}| that any estimate from n single-photon probes
    reaches on the ideal channel, the canonical measurement's sharpness."""
    return sum(math.sqrt(math.comb(n, k) * math.comb(n, k + 1)) for k in range(n)) / 2 ** n


def replay_summaries(record, grid_size):
    """Each step's (mu, sigma) of a run's posterior, replayed from its
    recorded feedbacks and outcomes on a flat grid of grid_size points
    under its model channel; (nan, nan) at a zero resultant.

    After k probes the posterior is a trigonometric polynomial of degree
    k, so a grid of k + 2 or more points sums it and its e^{i phi}
    moment exactly, and every such grid gives the same summaries up to
    rounding.
    """
    grid = PosteriorGrid.uniform(grid_size)
    summaries = []
    for feedback, outcome in zip(record.feedbacks.tolist(), record.outcomes.tolist()):
        grid.update(outcome, feedback, record.model_channel)
        try:
            summaries.append(tuple(grid.gaussian_summary()))
        except UndefinedMeanError:
            summaries.append((math.nan, math.nan))
    return summaries
