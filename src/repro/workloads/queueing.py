"""Tail-latency models for latency-critical services.

Interactive cloud services are load-balanced across their allocated
cores, so each service behaves as a FIFO M/G/k queue: Poisson query
arrivals, ``k`` identical cores, and a general per-query service-time
distribution whose mean depends on the core/cache configuration.

Two models are provided:

* :class:`MGkQueue` — a fast analytical approximation (Erlang-C waiting
  probability + Allen–Cunneen correction + exponential waiting tail)
  used as the ground truth the scheduler's matrices are built from.
* :class:`DiscreteEventQueue` — an event-driven simulation used to
  validate the approximation (tests assert agreement) and to produce
  noisy "measured" latencies.

Both report the 99th-percentile sojourn time (queueing + service), the
QoS metric of the paper.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

#: Utilization beyond which the analytical model switches to the
#: overload regime (queues grow without bound; latency is dominated by
#: backlog accumulated over the measurement horizon).
_SATURATION_RHO = 0.995

#: Horizon (seconds) over which overload backlog accumulates: the paper
#: measures tail latency over 100 ms timeslices.
_OVERLOAD_HORIZON = 0.1


def erlang_c(servers: int, offered_load: float) -> float:
    """Probability an arrival must wait in an M/M/k queue (Erlang C).

    ``offered_load`` is ``lambda * E[S]`` in Erlangs.  Computed in log
    space so large server counts stay stable.  Returns 1.0 at or beyond
    saturation.
    """
    if servers <= 0:
        raise ValueError(f"servers must be positive, got {servers}")
    if offered_load < 0:
        raise ValueError(f"offered_load must be non-negative, got {offered_load}")
    if offered_load == 0:
        return 0.0
    rho = offered_load / servers
    if rho >= 1.0:
        return 1.0
    # log of a^n / n! for n = 0..k
    log_terms = np.cumsum(
        np.concatenate(([0.0], np.log(offered_load) - np.log(np.arange(1, servers + 1))))
    )
    log_top = log_terms[-1] - math.log(1.0 - rho)
    log_max = max(log_top, float(np.max(log_terms[:-1]))) if servers > 1 else log_top
    denom = math.exp(log_top - log_max) + float(
        np.sum(np.exp(log_terms[:-1] - log_max))
    )
    return math.exp(log_top - log_max) / denom


def erlang_c_array(servers: int, offered_loads: np.ndarray) -> np.ndarray:
    """:func:`erlang_c` over many offered loads at one server count.

    Bit-identical to calling :func:`erlang_c` per element: the stable
    loads share one 2-D log-space pass (``cumsum`` along the server
    axis, row-wise max and sum), and the scalar code's ``math``
    calls stay per element.
    """
    if servers <= 0:
        raise ValueError(f"servers must be positive, got {servers}")
    offered = np.asarray(offered_loads, dtype=float)
    if np.any(offered < 0):
        raise ValueError("offered loads must be non-negative")
    rho = offered / servers
    out = np.where(rho >= 1.0, 1.0, 0.0)
    stable = (offered != 0) & (rho < 1.0)
    if not stable.any():
        return out
    a = offered[stable]
    log_terms = np.empty((a.size, servers + 1))
    log_terms[:, 0] = 0.0
    log_terms[:, 1:] = np.log(a)[:, None] - np.log(np.arange(1, servers + 1))
    np.cumsum(log_terms, axis=1, out=log_terms)
    log_top = log_terms[:, -1] - np.array(
        [math.log(1.0 - r) for r in rho[stable]]
    )
    if servers > 1:
        log_max = np.maximum(log_top, np.max(log_terms[:, :-1], axis=1))
    else:
        log_max = log_top
    top = np.array([math.exp(t) for t in log_top - log_max])
    rest = np.sum(np.exp(log_terms[:, :-1] - log_max[:, None]), axis=1)
    out[stable] = top / (top + rest)
    return out


def _lognormal_shape(q: float, scv: float) -> Tuple[float, float]:
    """``(sigma^2 / 2, z_q * sigma)`` of a lognormal with SCV ``scv``.

    Its ``q`` quantile at mean ``m`` is
    ``exp(log(m) - sigma^2 / 2 + z_q * sigma)``.
    """
    # Inverse normal CDF via Acklam-style rational approximation is
    # overkill; for the fixed quantiles we use the exact constants.
    z = {0.5: 0.0, 0.95: 1.6448536269514722,
         0.99: 2.3263478740408408}.get(q)
    if z is None:
        raise ValueError("only q in {0.5, 0.95, 0.99} supported")
    sigma2 = math.log(1.0 + scv)
    return sigma2 / 2.0, z * math.sqrt(sigma2)


def _lognormal_quantile(q: float, mean: float, scv: float) -> float:
    """Quantile of a lognormal with the given mean and SCV."""
    half, shift = _lognormal_shape(q, scv)
    return math.exp(math.log(mean) - half + shift)


def service_quantile_array(
    q: float,
    service_time_means: np.ndarray,
    service_scv: float,
    distribution: "Optional[ServiceDistribution]" = None,
) -> np.ndarray:
    """``MGkQueue._service_quantile(q)`` over an array of means."""
    means = np.asarray(service_time_means, dtype=float)
    if distribution is not None:
        return np.array([distribution.quantile(q, m) for m in means])
    if service_scv == 0:
        return means.copy()
    half, shift = _lognormal_shape(q, service_scv)
    return np.array([math.exp(math.log(m) - half + shift) for m in means])


def p99_latency_array(
    arrival_rate: np.ndarray,
    service_time_mean: np.ndarray,
    service_scv: np.ndarray,
    servers: int,
    service_p99: np.ndarray,
) -> np.ndarray:
    """:meth:`MGkQueue.p99_latency` of many queues in one array pass.

    The four arrays have one shape, one queue per element, all with
    ``servers`` servers.  ``service_p99`` is each queue's service-time
    99th percentile (:func:`service_quantile_array`).  Bit-identical to
    building an :class:`MGkQueue` per element: the overload branch's
    knee Erlang-C depends only on ``servers`` and is evaluated once,
    the stable branch goes through :func:`erlang_c_array`.
    """
    arrival, mean, scv = arrival_rate, service_time_mean, service_scv
    if np.any(arrival < 0):
        raise ValueError("arrival_rate must be non-negative")
    if np.any(mean <= 0):
        raise ValueError("service_time_mean must be positive")
    if np.any(scv < 0):
        raise ValueError("service_scv must be non-negative")
    if servers <= 0:
        raise ValueError("servers must be positive")
    rho = arrival * mean / servers
    out = np.array(service_p99, dtype=float)
    over = rho >= _SATURATION_RHO
    if over.any():
        # MGkQueue._overload_wait, with the knee probability hoisted.
        knee_rho = _SATURATION_RHO * 0.99
        p_knee = erlang_c(servers, knee_rho * servers)
        knee_wait = (
            p_knee
            * mean[over]
            / (servers * (1.0 - knee_rho))
            * (1.0 + scv[over])
            / 2.0
        )
        wait = knee_wait + np.maximum(0.0, rho[over] - 1.0) * _OVERLOAD_HORIZON
        out[over] += wait * math.log(100.0)
    stable = ~over & (arrival != 0)
    if not stable.any():
        return out
    p_wait = np.zeros_like(rho)
    p_wait[stable] = erlang_c_array(servers, arrival[stable] * mean[stable])
    queued = stable & (p_wait > 0.01)
    theta = (
        servers
        * (1.0 - rho[queued])
        / mean[queued]
        * 2.0
        / (1.0 + scv[queued])
    )
    w99 = np.array([math.log(100.0 * p) for p in p_wait[queued]]) / theta
    out[queued] += np.maximum(0.0, w99)
    return out


@dataclass(frozen=True)
class MGkQueue:
    """Analytical M/G/k tail-latency model.

    ``service_scv`` is the squared coefficient of variation of the
    service-time distribution (1 for exponential; interactive services
    are typically in [0.5, 2]).
    """

    arrival_rate: float
    service_time_mean: float
    service_scv: float
    servers: int
    #: Horizon over which overload backlog accumulates.
    overload_horizon: float = _OVERLOAD_HORIZON
    #: Optional explicit distribution shape; None means lognormal with
    #: the given SCV.
    distribution: "Optional[ServiceDistribution]" = None

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError("arrival_rate must be non-negative")
        if self.service_time_mean <= 0:
            raise ValueError("service_time_mean must be positive")
        if self.service_scv < 0:
            raise ValueError("service_scv must be non-negative")
        if self.servers <= 0:
            raise ValueError("servers must be positive")

    @property
    def utilization(self) -> float:
        """Offered load per server (rho)."""
        return self.arrival_rate * self.service_time_mean / self.servers

    def _service_quantile(self, q: float) -> float:
        """Quantile of the service-time distribution (lognormal default)."""
        if self.distribution is not None:
            return self.distribution.quantile(q, self.service_time_mean)
        if self.service_scv == 0:
            return self.service_time_mean
        return _lognormal_quantile(q, self.service_time_mean, self.service_scv)

    def mean_wait(self) -> float:
        """Mean queueing delay (Allen–Cunneen approximation)."""
        rho = self.utilization
        if rho >= _SATURATION_RHO:
            return self._overload_wait()
        p_wait = erlang_c(self.servers, self.arrival_rate * self.service_time_mean)
        mmk_wait = (
            p_wait * self.service_time_mean / (self.servers * (1.0 - rho))
        )
        return mmk_wait * (1.0 + self.service_scv) / 2.0

    def _overload_wait(self) -> float:
        """Waiting time in the overload regime (rho >= saturation).

        Backlog grows linearly: over a horizon H the queue accumulates
        (rho - 1) * H / E[S] unserved queries per server, so the last
        arrivals wait about (rho - 1) * H plus the near-saturation wait.
        """
        rho = self.utilization
        knee_rho = _SATURATION_RHO * 0.99  # strictly inside the stable regime
        offered = knee_rho * self.servers
        p_wait = erlang_c(self.servers, offered)
        knee_wait = (
            p_wait
            * self.service_time_mean
            / (self.servers * (1.0 - knee_rho))
            * (1.0 + self.service_scv)
            / 2.0
        )
        return knee_wait + max(0.0, rho - 1.0) * self.overload_horizon

    def p99_latency(self) -> float:
        """99th-percentile sojourn time (waiting + service).

        The conditional waiting time in an M/G/k queue is approximately
        exponential with rate ``k (1 - rho) / E[S] * 2 / (1 + SCV)``;
        the 99th percentile of the sojourn combines that tail with the
        service-time quantile.
        """
        rho = self.utilization
        s99 = self._service_quantile(0.99)
        if rho >= _SATURATION_RHO:
            return s99 + self._overload_wait() * math.log(100.0)
        if self.arrival_rate == 0:
            return s99
        p_wait = erlang_c(self.servers, self.arrival_rate * self.service_time_mean)
        if p_wait <= 0.01:
            return s99
        theta = (
            self.servers
            * (1.0 - rho)
            / self.service_time_mean
            * 2.0
            / (1.0 + self.service_scv)
        )
        w99 = math.log(100.0 * p_wait) / theta
        return s99 + max(0.0, w99)

    def mean_latency(self) -> float:
        """Mean sojourn time."""
        return self.service_time_mean + self.mean_wait()


@dataclass(frozen=True)
class ServiceDistribution:
    """Shape of a service's per-query service-time distribution.

    Interactive services differ in more than their SCV: search and
    translation workloads are famously *bimodal* — most queries are
    short, a small class is many times longer and dominates the tail.
    Three kinds are supported:

    * ``"lognormal"`` — the default smooth heavy-ish tail, parameterised
      by ``scv``;
    * ``"bimodal"`` — a fraction ``long_fraction`` of queries takes
      ``long_ratio`` times the short time (ratios solved from the SCV
      when not given);
    * ``"deterministic"`` — fixed service time.

    The distribution is *scale-free*: ``mean`` is applied per call, so
    the same shape serves every core configuration.
    """

    kind: str = "lognormal"
    scv: float = 1.0
    long_fraction: float = 0.05
    long_ratio: float = 0.0  # 0 -> solve from scv

    def __post_init__(self) -> None:
        if self.kind not in ("lognormal", "bimodal", "deterministic"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.scv < 0:
            raise ValueError("scv must be non-negative")
        if not 0 < self.long_fraction < 1:
            raise ValueError("long_fraction must be in (0, 1)")
        if self.long_ratio < 0:
            raise ValueError("long_ratio must be non-negative")
        if self.kind == "bimodal":
            object.__setattr__(self, "long_ratio", self._solve_ratio())

    def _solve_ratio(self) -> float:
        """Long/short ratio matching the target SCV (bisection)."""
        if self.long_ratio > 0:
            return self.long_ratio
        p = self.long_fraction

        def scv_of(k: float) -> float:
            mean = (1 - p) + p * k
            second = (1 - p) + p * k * k
            return second / mean**2 - 1.0

        lo, hi = 1.0, 2.0
        while scv_of(hi) < self.scv and hi < 1e4:
            hi *= 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if scv_of(mid) < self.scv:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def _short_long(self, mean: float) -> "Tuple[float, float]":
        p = self.long_fraction
        k = self.long_ratio
        short = mean / ((1 - p) + p * k)
        return short, short * k

    def quantile(self, q: float, mean: float) -> float:
        """Quantile of the distribution scaled to ``mean``."""
        if not 0 < q < 1:
            raise ValueError("q must be in (0, 1)")
        if self.kind == "deterministic" or self.scv == 0:
            return mean
        if self.kind == "bimodal":
            short, long = self._short_long(mean)
            return long if q > 1 - self.long_fraction else short
        return _lognormal_quantile(q, mean, self.scv)

    def sample(
        self, n: int, mean: float, rng: np.random.Generator
    ) -> np.ndarray:
        """``n`` service times scaled to ``mean``."""
        if self.kind == "deterministic" or self.scv == 0:
            return np.full(n, mean)
        if self.kind == "bimodal":
            short, long = self._short_long(mean)
            is_long = rng.random(n) < self.long_fraction
            return np.where(is_long, long, short)
        sigma2 = math.log(1.0 + self.scv)
        mu = math.log(mean) - sigma2 / 2.0
        return rng.lognormal(mean=mu, sigma=math.sqrt(sigma2), size=n)


def mixture_p99(
    fractions: "Sequence[float]", p99s: "Sequence[float]"
) -> float:
    """p99 of a timeslice spent across several queue regimes.

    Used to model profiling schedules that cycle a latency-critical
    service through configurations within one slice (Flicker, §VIII-E):
    a fraction ``f_c`` of queries experiences regime ``c`` whose own
    99th percentile is ``p99s[c]``.  Each regime's sojourn tail is
    approximated as exponential calibrated through its p99
    (``P_c(T > t) = 0.01 ** (t / p99_c)``); the mixture's 99th
    percentile solves ``sum_c f_c P_c(T > t) = 0.01`` by bisection.
    """
    fractions = np.asarray(fractions, dtype=float)
    p99s = np.asarray(p99s, dtype=float)
    if fractions.shape != p99s.shape or fractions.size == 0:
        raise ValueError("fractions and p99s must be equal-length, non-empty")
    if np.any(fractions < 0) or not math.isclose(
        float(fractions.sum()), 1.0, rel_tol=1e-6
    ):
        raise ValueError("fractions must be non-negative and sum to 1")
    if np.any(p99s <= 0):
        raise ValueError("per-regime p99s must be positive")

    def excess(t: float) -> float:
        return float(np.sum(fractions * 0.01 ** (t / p99s))) - 0.01

    lo, hi = 0.0, float(p99s.max())
    if excess(hi) > 0:  # numerical guard; tail mass beyond the max p99
        hi *= 2.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class DiscreteEventQueue:
    """Event-driven M/G/k FIFO simulation with lognormal service times.

    Used to validate :class:`MGkQueue` and to generate noisy per-slice
    latency measurements.  Deterministic given the generator.
    """

    def __init__(
        self,
        arrival_rate: float,
        service_time_mean: float,
        service_scv: float,
        servers: int,
        distribution: "Optional[ServiceDistribution]" = None,
    ) -> None:
        if arrival_rate < 0:
            raise ValueError("arrival_rate must be non-negative")
        if service_time_mean <= 0:
            raise ValueError("service_time_mean must be positive")
        if servers <= 0:
            raise ValueError("servers must be positive")
        self.arrival_rate = arrival_rate
        self.service_time_mean = service_time_mean
        self.service_scv = service_scv
        self.servers = servers
        self.distribution = distribution

    def _service_samples(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.distribution is not None:
            return self.distribution.sample(n, self.service_time_mean, rng)
        if self.service_scv == 0:
            return np.full(n, self.service_time_mean)
        sigma2 = math.log(1.0 + self.service_scv)
        mu = math.log(self.service_time_mean) - sigma2 / 2.0
        return rng.lognormal(mean=mu, sigma=math.sqrt(sigma2), size=n)

    def simulate(
        self, duration: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Run for ``duration`` seconds; return per-query sojourn times.

        Returns an empty array if no queries arrive.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if self.arrival_rate == 0:
            return np.array([])
        n_expected = self.arrival_rate * duration
        inter = rng.exponential(
            1.0 / self.arrival_rate, size=max(16, int(n_expected * 1.3) + 16)
        )
        arrivals = np.cumsum(inter)
        arrivals = arrivals[arrivals < duration]
        if arrivals.size == 0:
            return np.array([])
        services = self._service_samples(arrivals.size, rng)
        free_at = [0.0] * self.servers
        heapq.heapify(free_at)
        sojourns = np.empty(arrivals.size)
        for i in range(arrivals.size):
            earliest = heapq.heappop(free_at)
            start = max(arrivals[i], earliest)
            finish = start + services[i]
            heapq.heappush(free_at, finish)
            sojourns[i] = finish - arrivals[i]
        return sojourns

    def p99_latency(self, duration: float, rng: np.random.Generator) -> float:
        """Empirical 99th-percentile sojourn over one run."""
        sojourns = self.simulate(duration, rng)
        if sojourns.size == 0:
            return 0.0
        return float(np.percentile(sojourns, 99))
