"""Time/space complexity models of PAMI resource setup (Eqs. 1-6).

Table I names the attributes; Table II gives their empirical values. The
:class:`ComplexityModel` evaluates the paper's closed forms:

- Contexts:        ``M_c = eps * rho``          (Eq. 1)
                   ``T_c = rho * t_ctx``         (Eq. 2)
- Endpoints:       ``M_e = zeta * alpha * rho``  (Eq. 3)
                   ``T_e = zeta * beta * rho``   (Eq. 4)
- Memory regions:  ``M_r = tau*gamma + sigma*zeta*gamma``  (Eq. 5)
                   ``T_r = tau*delta + sigma*delta``       (Eq. 6)

(The paper overloads the symbol ``rho`` for both context count and creation
time; here ``rho`` is the count and ``t_ctx`` the creation time.)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError
from ..machine.bgq import BGQParams

#: Table I — (index, property, symbol) rows, verbatim from the paper.
TABLE_I_ROWS: tuple[tuple[int, str, str], ...] = (
    (1, "Message Size for Data Transfer", "m"),
    (2, "Total Number of Processes", "p"),
    (3, "Number of Processes/Node", "c"),
    (4, "Endpoint Space Utilization", "alpha"),
    (5, "Endpoint Creation Time", "beta"),
    (6, "Memory Region Space Utilization", "gamma"),
    (7, "Memory Region Creation Time", "delta"),
    (8, "Context Space Utilization", "epsilon"),
    (9, "Context Creation Time", "t_ctx"),
    (10, "Number of Contexts", "rho"),
    (11, "Communication Clique", "zeta"),
    (12, "Number of Active Global Address Structure", "sigma"),
    (13, "Number of Local Buffers used for Communication", "tau"),
)


@dataclass(frozen=True)
class Attributes:
    """One concrete assignment of the Table I attributes."""

    #: Endpoint space utilization (bytes), alpha.
    alpha: int
    #: Endpoint creation time (s), beta.
    beta: float
    #: Memory-region space utilization (bytes), gamma.
    gamma: int
    #: Memory-region creation time (s), delta.
    delta: float
    #: Context space utilization (bytes), epsilon.
    epsilon: int
    #: Context creation time (s).
    t_ctx: float
    #: Number of contexts, rho (1-2 in the paper).
    rho: int
    #: Communication clique size, zeta (1-p).
    zeta: int
    #: Number of active global address structures, sigma (1-7).
    sigma: int
    #: Number of local communication buffers, tau (1-3).
    tau: int

    def __post_init__(self) -> None:
        if self.rho < 1:
            raise ReproError(f"need at least one context, got rho={self.rho}")
        if self.zeta < 0:
            raise ReproError(f"clique size must be >= 0, got zeta={self.zeta}")
        if self.sigma < 0 or self.tau < 0:
            raise ReproError(
                f"sigma/tau must be >= 0, got sigma={self.sigma}, tau={self.tau}"
            )


def table_ii_attributes(
    *,
    rho: int = 1,
    zeta: int = 1,
    sigma: int = 1,
    tau: int = 1,
) -> Attributes:
    """Attributes populated with Table II's empirical values.

    The variable attributes (``rho``, ``zeta``, ``sigma``, ``tau``) default
    to the low end of Table II's ranges and can be overridden.
    """
    p = BGQParams()
    return Attributes(
        alpha=p.endpoint_space,
        beta=p.endpoint_create_time,
        gamma=p.memregion_space,
        delta=p.memregion_create_time,
        epsilon=p.context_space,
        t_ctx=p.context_create_time(rho - 1),
        rho=rho,
        zeta=zeta,
        sigma=sigma,
        tau=tau,
    )


@dataclass(frozen=True)
class ComplexityModel:
    """Evaluates Eqs. 1-6 for a given attribute assignment."""

    attrs: Attributes

    def context_space(self) -> int:
        """Eq. 1: ``M_c = epsilon * rho`` bytes per process."""
        return self.attrs.epsilon * self.attrs.rho

    def context_time(self) -> float:
        """Eq. 2: total context-creation time per process."""
        return self.attrs.rho * self.attrs.t_ctx

    def endpoint_space(self) -> int:
        """Eq. 3: ``M_e = zeta * alpha * rho`` bytes per process."""
        return self.attrs.zeta * self.attrs.alpha * self.attrs.rho

    def endpoint_time(self) -> float:
        """Eq. 4: ``T_e = zeta * beta * rho`` seconds per process."""
        return self.attrs.zeta * self.attrs.beta * self.attrs.rho

    def memregion_space(self) -> int:
        """Eq. 5: ``M_r = tau*gamma + sigma*zeta*gamma`` bytes per process.

        First term: local communication buffers; second: cached remote
        regions for every active global structure across the clique. With
        strong scaling (zeta ~ p) this term motivates the bounded
        region cache of Section III-B.
        """
        a = self.attrs
        return a.tau * a.gamma + a.sigma * a.zeta * a.gamma

    def memregion_time(self) -> float:
        """Eq. 6: ``T_r = tau*delta + sigma*delta`` seconds per process."""
        a = self.attrs
        return a.tau * a.delta + a.sigma * a.delta
