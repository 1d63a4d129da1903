"""The simplified 2D SWM solver (surface uniform along y; paper Fig. 6).

Identical formulation to :mod:`repro.swm.solver` with line-source kernels:

.. math::

    (\\tfrac12 I - D_1)\\,\\psi + \\beta S_1\\, v = \\psi_{in},
    \\qquad
    (\\tfrac12 I + D_2)\\,\\psi - S_2\\, v = 0

absorbed power per unit length ``Pr = (1/2) int Re{psi* v} dl`` and the
smooth reference ``Ps = |T0|^2 L / (2 delta)``.

The paper's Fig. 6 point: a 2D (ridged) surface of the same sigma/eta
absorbs noticeably *less* than a true 3D rough surface — 2D roughness
models underestimate the loss.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..constants import METER_TO_UM
from ..errors import ConfigurationError, SolverError
from ..materials import PAPER_SYSTEM, TwoMediumSystem
from ..telemetry import span
from .assembly2d import Assembly2DOptions, assemble_media_multi_k_2d
from .geometry import SurfaceMesh2D, build_mesh_2d
from .plan import AssemblyPlan2D


@dataclass(frozen=True)
class SWM2DResult:
    """Solution of one deterministic 2D SWM problem."""

    frequency_hz: float
    enhancement: float
    absorbed_power: float
    smooth_power: float
    psi: np.ndarray
    v: np.ndarray
    mesh: SurfaceMesh2D

    @property
    def pr_over_ps(self) -> float:
        return self.enhancement


@dataclass(frozen=True)
class SWM2DOptions:
    """Numerical options of the 2D solver.

    ``batch_size`` bounds how many sample systems the batched solve path
    (:meth:`SWMSolver2D.solve_many_um`) stacks at once, and is the
    default sample-batch size for estimators running against this
    solver. Perf-only (batched results are bit-identical), so it is
    excluded from content hashes.
    """

    #: Fields deliberately outside the content hash; the hash-purity
    #: check (RPR003) keeps this set honest against :meth:`to_spec`.
    HASH_EXCLUDED = frozenset({"batch_size", "check_finite"})

    assembly: Assembly2DOptions = field(default_factory=Assembly2DOptions)
    check_finite: bool = True
    batch_size: int | None = None

    def __post_init__(self) -> None:
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1 or None, got {self.batch_size}"
            )

    def to_spec(self) -> dict:
        """Content-hashable dict (keys the engine's result cache).
        The assembly part comes from :meth:`Assembly2DOptions.to_spec`,
        so the 2D kernel revision reaches every 2D hash. Knobs that
        cannot change payloads (:data:`HASH_EXCLUDED`) stay out so they
        never split cache entries: ``batch_size`` (batched solves are
        bit-identical) and ``check_finite`` (it only turns a non-finite
        assembly into a clear error — every payload that *returns* is
        identical either way)."""
        return {"assembly": self.assembly.to_spec()}


class SWMSolver2D:
    """Deterministic 2D SWM solver."""

    def __init__(self, system: TwoMediumSystem = PAPER_SYSTEM,
                 options: SWM2DOptions | None = None) -> None:
        self.system = system
        self.options = options or SWM2DOptions()

    def solve(self, profile_m: np.ndarray, period_m: float,
              frequency_hz: float) -> SWM2DResult:
        """Solve for a profile given in meters."""
        profile_um = np.asarray(profile_m, dtype=np.float64) * METER_TO_UM
        mesh = build_mesh_2d(profile_um, float(period_m) * METER_TO_UM)
        return self._solve_stack([mesh], [frequency_hz], stacklevel=4)[0][0]

    def solve_um(self, profile_um: np.ndarray, period_um: float,
                 frequency_hz: float) -> SWM2DResult:
        """Solve with geometry already in micrometers."""
        mesh = build_mesh_2d(np.asarray(profile_um, dtype=np.float64),
                             float(period_um))
        return self._solve_stack([mesh], [frequency_hz], stacklevel=4)[0][0]

    def solve_mesh(self, mesh: SurfaceMesh2D, frequency_hz: float
                   ) -> SWM2DResult:
        """Solve on a prebuilt (micrometer-unit) mesh."""
        return self._solve_stack([mesh], [frequency_hz], stacklevel=4)[0][0]

    def _check_resolution(self, spacing_um: float, frequency_hz: float,
                          stacklevel: int) -> None:
        """Warn when the profile mesh cannot resolve the skin depth.

        Same criterion as ``SWMSolver3D._check_resolution`` (the 2D
        field varies just as rapidly inside the conductor), with
        ``stacklevel`` threaded from the public entry point so the
        warning points at the *user's* call site, not a solver-internal
        frame.
        """
        delta_um = self.system.delta(frequency_hz) * METER_TO_UM
        if spacing_um > 1.5 * delta_um:
            warnings.warn(
                f"2D SWM mesh spacing {spacing_um:.3g} um exceeds 1.5x the "
                f"skin depth {delta_um:.3g} um at "
                f"{frequency_hz / 1e9:.3g} GHz; the enhancement factor is "
                "discretization-limited here (refine the profile or lower "
                "the frequency)",
                RuntimeWarning,
                stacklevel=stacklevel,
            )

    # ------------------------------------------------------------------
    # Batched sample solves (the 2D profile MC hot path)
    # ------------------------------------------------------------------

    def solve_many(self, profiles_m: np.ndarray, period_m: float,
                   frequency_hz: float) -> list[SWM2DResult]:
        """Batched :meth:`solve` for a ``(B, n)`` stack of profiles.

        Bit-identical to per-profile :meth:`solve`; the B dense systems
        are assembled with the sample axis vectorized (both media and
        the green/gradient kernels fused into one mode-sum pass) and
        factored as one stacked batch.
        """
        profiles_um = np.asarray(profiles_m, dtype=np.float64) * METER_TO_UM
        return self._solve_many_um(profiles_um,
                                   float(period_m) * METER_TO_UM,
                                   frequency_hz, stacklevel=5)

    def solve_many_um(self, profiles_um: np.ndarray, period_um: float,
                      frequency_hz: float) -> list[SWM2DResult]:
        """Same as :meth:`solve_many` with geometry in micrometers."""
        return self._solve_many_um(np.asarray(profiles_um, dtype=np.float64),
                                   float(period_um), frequency_hz,
                                   stacklevel=5)

    def solve_mesh_many(self, meshes: list[SurfaceMesh2D],
                        frequency_hz: float) -> list[SWM2DResult]:
        """Batched :meth:`solve_mesh` over prebuilt same-grid meshes."""
        return self._solve_stack(list(meshes), [frequency_hz],
                                 stacklevel=4)[0]

    def _solve_many_um(self, profiles_um: np.ndarray, period_um: float,
                       frequency_hz: float, stacklevel: int
                       ) -> list[SWM2DResult]:
        if profiles_um.ndim != 2:
            raise ConfigurationError(
                f"batched profiles must be a (B, n) stack, got shape "
                f"{profiles_um.shape}"
            )
        meshes = [build_mesh_2d(p, period_um) for p in profiles_um]
        return self._solve_stack(meshes, [frequency_hz], stacklevel)[0]

    def _validate_same_grid(self, meshes: list[SurfaceMesh2D]) -> None:
        if not meshes:
            raise ConfigurationError("batched solve needs at least one mesh")
        base = meshes[0]
        for mesh in meshes[1:]:
            if mesh.n != base.n or mesh.period != base.period:
                raise ConfigurationError(
                    "batched solve requires meshes sharing grid and period; "
                    f"got n={mesh.n} L={mesh.period} vs n={base.n} "
                    f"L={base.period}"
                )

    def solve_mesh_many_multi_k(self, meshes: list[SurfaceMesh2D],
                                frequencies_hz) -> list[list[SWM2DResult]]:
        """Solve a same-grid profile batch at several frequencies at once.

        The 2D multi-frequency hot path: each sample chunk's
        k-independent :class:`AssemblyPlan2D` is built once and consumed
        by every frequency's media (2 x F per-k assemblies share one
        plan and one fused Kummer mode-sum pass). Returns one
        ``list[SWM2DResult]`` per frequency (outer index follows
        ``frequencies_hz``), **bit-identical** to calling
        :meth:`solve_mesh_many` once per frequency (same chunking, same
        factorization call).
        """
        return self._solve_stack(list(meshes), frequencies_hz, stacklevel=4)

    def _solve_stack(self, meshes: list[SurfaceMesh2D], frequencies_hz,
                     stacklevel: int) -> list[list[SWM2DResult]]:
        """The solve kernel behind :meth:`solve_mesh_many_multi_k`.

        Every 2D solve runs here: a single solve is one profile at one
        frequency, a batched solve one frequency. ``stacklevel`` is the
        resolution warning's, threaded from the public entry point.
        """
        freqs = [float(f) for f in frequencies_hz]
        if not freqs:
            raise ConfigurationError(
                "multi-frequency solve needs at least one frequency"
            )
        self._validate_same_grid(meshes)
        base = meshes[0]
        for f in freqs:
            self._check_resolution(base.spacing, f, stacklevel=stacklevel)
        from .solver import _auto_stack

        ks = []
        for f in freqs:
            ks.append((f, self.system.k1(f) / METER_TO_UM,
                       self.system.k2(f) / METER_TO_UM))
        flat_ks = [k for _, k1, k2 in ks for k in (k1, k2)]

        n = base.size
        max_stack = self.options.batch_size or _auto_stack(n)
        results: list[list[SWM2DResult]] = [[] for _ in freqs]
        for lo in range(0, len(meshes), max_stack):
            sub = meshes[lo:lo + max_stack]
            nb = len(sub)
            with span("plan", n=n, batch=nb, freqs=len(freqs)):
                plan = AssemblyPlan2D.build(sub, self.options.assembly)
            with span("assemble", n=n, batch=nb, freqs=len(freqs)):
                mats = assemble_media_multi_k_2d(plan, flat_ks)
                systems = []
                for f, k1, k2 in ks:
                    (d1, s1), (d2, s2) = mats.pop(0), mats.pop(0)
                    systems.append(self._block_system_2d(
                        sub, f, k1, k2, d1, s1, d2, s2))
            for fi, (f, _, _) in enumerate(ks):
                a, rhs, scale_v = systems.pop(0)
                sol = self._factor_stack_2d(a, rhs, n, nb)
                results[fi].extend(self._finish_many_2d(
                    sub, f, sol[:, :n], sol[:, n:] * scale_v))
        return results

    def _block_system_2d(self, meshes: list[SurfaceMesh2D],
                         frequency_hz: float, k1: complex, k2: complex,
                         d1: np.ndarray, s1: np.ndarray,
                         d2: np.ndarray, s2: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, float]:
        """Stack the coupled ``(B, 2n, 2n)`` block systems and RHS."""
        beta = self.system.beta(frequency_hz)
        nb = len(meshes)
        n = meshes[0].size
        half = 0.5 * np.eye(n)
        scale_v = abs(k2)
        a = np.empty((nb, 2 * n, 2 * n), dtype=np.complex128)
        a[:, :n, :n] = half - d1
        a[:, :n, n:] = beta * s1 * scale_v
        a[:, n:, :n] = half + d2
        a[:, n:, n:] = -s2 * scale_v

        rhs = np.zeros((nb, 2 * n), dtype=np.complex128)
        # Materialized for the same reason as the 3D solver: the
        # -1j*k1 multiply must not elide into the stack temporary
        # (bit-exact parity with the per-sample path).
        z = np.stack([m.z for m in meshes])
        rhs[:, :n] = np.exp(-1j * k1 * z)
        return a, rhs, scale_v

    def _factor_stack_2d(self, a: np.ndarray, rhs: np.ndarray,
                         n: int, nb: int) -> np.ndarray:
        """Finite-check and factor one stacked batch.

        Every 2D solve factors here (a single profile is a batch of
        one), so per-sample and stacked solutions share one
        ``np.linalg.solve`` call and agree bit for bit.
        """
        if self.options.check_finite and not np.all(np.isfinite(a)):
            raise SolverError("assembled 2D SWM matrix contains non-finite "
                              "entries")
        try:
            with span("factor", n=n, batch=nb):
                sol = np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"dense 2D solve failed: {exc}") from exc
        if not np.all(np.isfinite(sol)):
            raise SolverError("2D SWM solution contains non-finite entries "
                              "(singular system?)")
        return sol

    def _finish_many_2d(self, meshes: list[SurfaceMesh2D],
                        frequency_hz: float, psi: np.ndarray, v: np.ndarray
                        ) -> list[SWM2DResult]:
        """Vectorized power evaluation over the profile stack."""
        with span("power", batch=len(meshes)):
            lengths = np.stack([m.true_lengths() for m in meshes])
            pr = 0.5 * np.sum(np.real(np.conj(psi) * v) * lengths, axis=1)
            ps = self.smooth_power(meshes[0].period, frequency_hz)
        return [
            SWM2DResult(
                frequency_hz=float(frequency_hz),
                enhancement=float(pr[i]) / ps,
                absorbed_power=float(pr[i]),
                smooth_power=ps,
                psi=psi[i],
                v=v[i],
                mesh=mesh,
            )
            for i, mesh in enumerate(meshes)
        ]

    def smooth_power(self, period_um: float, frequency_hz: float) -> float:
        """Smooth-surface absorbed power per unit y-length."""
        if period_um <= 0.0:
            raise ConfigurationError(
                f"period must be positive, got {period_um}"
            )
        delta_um = self.system.delta(frequency_hz) * METER_TO_UM
        t0 = self.system.flat_transmission(frequency_hz)
        return abs(t0) ** 2 * period_um / (2.0 * delta_um)
