"""Layer tracer: times and counts calls across measurefit module boundaries.

Nothing under ``src/`` is edited. The tracer replaces module attributes and
class methods at run time with wrappers that open a span on a stack, so each
layer's self time is its spans' duration minus the part covered by child
spans. Patches go on the names callers actually look up: ``measure`` calls
``integrate_panels`` through its own namespace, ``estimator`` calls
``integrate`` through its own, ``tailstudy`` and ``montecarlo`` call ``fit``
through theirs. ``restore()`` puts every original back.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

LAYERS = ("cli", "tailstudy", "montecarlo", "closedform", "estimator",
          "measure", "quadrature", "models")

# Gauss-Legendre points evaluated per panel: the 21-point rule plus the
# embedded 10-point error rule.
POINTS_PER_PANEL = 31

_clock = time.perf_counter


class Tracer:
    """Span stack plus named counters and inclusive timers."""

    def __init__(self) -> None:
        self.counts = defaultdict(float)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        # one frame per open span: [layer, name, child_seconds, panel_calls]
        self._stack: list[list] = []
        self._starts: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._measures: dict[int, object] = {}

    # -- spans -------------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a spanned wrapper.

        ``after(args, kwargs, result, parent)`` runs once the call returns and
        updates counters; ``parent`` is the span name that made the call.
        """
        original = getattr(owner, attr)
        stack = self._stack
        inclusive = self.inclusive
        self_time = self.self_time
        counts = self.counts
        calls_key = name + ".calls"

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [layer, name, 0.0, 0]
            stack.append(frame)
            start = _clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                counts[name + ".raised." + type(exc).__name__] += 1
                raise
            finally:
                elapsed = _clock() - start
                stack.pop()
                inclusive[name] += elapsed
                self_time[layer] += elapsed - frame[2]
                counts[calls_key] += 1
                if stack:
                    stack[-1][2] += elapsed
            if after is not None:
                after(args, kwargs, result, parent)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._measures.clear()

    # -- installation ------------------------------------------------------

    def install(self, mf) -> None:
        """Wrap the boundaries of all eight layers of the ``measurefit`` package."""
        c = self.counts
        quadrature, measure, models = mf.quadrature, mf.measure, mf.models
        estimator, montecarlo, closedform = mf.estimator, mf.montecarlo, mf.closedform
        tailstudy, cli = mf.tailstudy, mf.cli

        # quadrature: the panel evaluator is looked up in the module's globals
        # by integrate_panels; integrate_panels and domain_knots through measure
        def after_panels(args, kwargs, result, parent):
            c["quadrature.panels"] += len(args[1])
            integral = self._stack[-1]  # the integrate_panels span that asked
            integral[3] += 1
            if integral[3] == 1:
                c["quadrature.started_integrals"] += 1
            elif integral[3] == 2:
                c["quadrature.refined_integrals"] += 1

        self.wrap(quadrature, "_panel_estimates", "quadrature", "quadrature.panel",
                  after_panels)
        self.wrap(measure, "integrate_panels", "quadrature", "quadrature.integrate_panels")
        self.wrap(measure, "domain_knots", "quadrature", "quadrature.knots")

        # measure: adaptive integration and the kernels evaluated inside it
        measures = self._measures

        def after_integrate(args, kwargs, result, parent):
            m = args[2] if len(args) > 2 else kwargs["measure"]
            measures.setdefault(id(m), m)  # held, so an id is never reused

        self.wrap(estimator, "integrate", "measure", "measure.integrate", after_integrate)
        self.wrap(measure, "_density_component_integral", "measure", "measure.density_integral")
        self.wrap(measure, "_ramp_component_integral", "measure", "measure.ramp_integral")
        for kernel in (measure.NormalKernel, measure.GammaKernel):
            for method in ("pdf", "cdf", "sf", "ppf"):
                self.wrap(kernel, method, "measure", "measure.kernel")

        # models: family densities, survival functions, scores
        def after_density(args, kwargs, result, parent):
            c["models.points"] += getattr(args[2], "size", 1)

        for family in (models.NormalLocation, models.ExponentialRate, models.ParetoTail):
            self.wrap(family, "density", "models", "models.density", after_density)
            self.wrap(family, "survival", "models", "models.survival")
            self.wrap(family, "cdf", "models", "models.cdf")
            self.wrap(family, "log_density_grad", "models", "models.score")

        # estimator: objective / gradient evaluations, evaluator set-up, solvers
        def after_w(args, kwargs, result, parent):
            if parent == "estimator.z_value":
                c["estimator.fd_loss_evals"] += 1

        def after_profile(args, kwargs, result, parent):
            c["estimator.fast_profiles"] += result is not None

        def after_fit(args, kwargs, result, parent):
            c["estimator.solver_iters"] += result.iterations

        evaluator = estimator._SampleEvaluator
        self.wrap(estimator, "w_value", "estimator", "estimator.w_value", after_w)
        self.wrap(estimator, "z_value", "estimator", "estimator.z_value")
        self.wrap(evaluator, "w_values", "estimator", "estimator.w_values")
        self.wrap(evaluator, "z_values", "estimator", "estimator.z_values")
        self.wrap(evaluator, "_build_profile", "estimator", "estimator.build_profile",
                  after_profile)
        self.wrap(estimator, "sandwich", "estimator", "estimator.sandwich")
        self.wrap(estimator, "bootstrap_se", "estimator", "estimator.bootstrap_se")
        for owner in (estimator, tailstudy, montecarlo):
            self.wrap(owner, "fit", "estimator", "estimator.fit", after_fit)

        # montecarlo: sample draws, the study loop, the score at the limit
        def after_draw(args, kwargs, result, parent):
            c["montecarlo.measures_built"] += len(result[1])

        self.wrap(montecarlo, "_draw", "montecarlo", "montecarlo.draw", after_draw)
        self.wrap(montecarlo, "replicate", "montecarlo", "montecarlo.replicate")
        montecarlo._SampleEvaluator = self._score_evaluator(evaluator)
        self._patches.append((montecarlo, "_SampleEvaluator", evaluator))

        # closedform: the analytic characteristics, wherever they are looked up
        for owner in (montecarlo, closedform):
            for fn in ("eg_characteristics", "nn_characteristics"):
                self.wrap(owner, fn, "closedform", "closedform.characteristics")

        # tailstudy: ingest, measure construction, baselines, the curve
        def after_load(args, kwargs, result, parent):
            c["tailstudy.rows_loaded"] += len(result.records)
            c["tailstudy.rows_rejected"] += len(result.rejected)

        self.wrap(tailstudy, "load_claims", "tailstudy", "tailstudy.load", after_load)
        self.wrap(tailstudy, "select_top_k", "tailstudy", "tailstudy.select")
        self.wrap(tailstudy, "claim_measure", "tailstudy", "tailstudy.claim_measure")
        self.wrap(tailstudy, "build_bridge_sample", "tailstudy", "tailstudy.bridge_sample")
        self.wrap(tailstudy, "imputation_index", "tailstudy", "tailstudy.baseline")
        self.wrap(tailstudy, "survival_index", "tailstudy", "tailstudy.baseline")
        self.wrap(tailstudy, "tail_curve", "tailstudy", "tailstudy.tail_curve")
        for owner in (tailstudy, cli):
            self.wrap(owner, "synthesize_claims", "tailstudy", "tailstudy.synthesize")

        # cli: the command dispatcher and the bytes its writers leave on disk
        def after_write(args, kwargs, result, parent):
            c["cli.bytes_out"] += os.path.getsize(args[0])

        self.wrap(cli, "run", "cli", "cli.run")
        self.wrap(cli, "_write_atomic", "cli", "cli.write", after_write)

    def _score_evaluator(self, base):
        """Evaluator subclass that puts ``replicate``'s score at the limit in a span."""
        tracer = self

        class ScoreEvaluator(base):
            def __init__(self, *args, **kwargs):
                tracer._enter("montecarlo", "montecarlo.score")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer._leave()

            def z_values(self, c):
                tracer._enter("montecarlo", "montecarlo.score")
                try:
                    return super().z_values(c)
                finally:
                    tracer._leave()

        return ScoreEvaluator

    def _enter(self, layer: str, name: str) -> None:
        self._stack.append([layer, name, 0.0, 0])
        self._starts.append(_clock())

    def _leave(self) -> None:
        elapsed = _clock() - self._starts.pop()
        layer, name, child, _ = self._stack.pop()
        self.inclusive[name] += elapsed
        self.self_time[layer] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, named ``<layer>.<metric>``."""
        c, t, s = self.counts, self.inclusive, self.self_time
        integrals = c["quadrature.integrate_panels.calls"]
        panel_calls = c["quadrature.panel.calls"]
        first_pass = integrals - c["quadrature.refined_integrals"]
        measure_integrals = c["measure.integrate.calls"]
        builds = c["estimator.build_profile.calls"]
        return {
            "quadrature.integrals": integrals,
            "quadrature.panels": c["quadrature.panels"],
            "quadrature.points": POINTS_PER_PANEL * c["quadrature.panels"],
            "quadrature.refine_rounds": panel_calls - c["quadrature.started_integrals"],
            "quadrature.first_pass_share": first_pass / integrals if integrals else 0.0,
            "quadrature.errors": c["quadrature.integrate_panels.raised.QuadratureError"],
            "quadrature.knots_s": t["quadrature.knots"],
            "quadrature.panel_s": t["quadrature.panel"],
            "quadrature.self_s": s["quadrature"],
            "measure.integrals": measure_integrals,
            "measure.density_integrals": c["measure.density_integral.calls"],
            "measure.ramp_integrals": c["measure.ramp_integral.calls"],
            "measure.distinct_measures": len(self._measures),
            "measure.reuse_ratio": (measure_integrals / len(self._measures)
                                    if self._measures else 0.0),
            "measure.kernel_calls": c["measure.kernel.calls"],
            "measure.integrate_self_s": s["measure"],
            "models.density_calls": c["models.density.calls"],
            "models.points": c["models.points"],
            "models.density_s": t["models.density"],
            "models.survival_calls": c["models.survival.calls"],
            "models.self_s": s["models"],
            "estimator.fits": c["estimator.fit.calls"],
            "estimator.objective_evals": c["estimator.w_values.calls"],
            "estimator.gradient_evals": c["estimator.z_values.calls"],
            "estimator.fd_loss_evals": c["estimator.fd_loss_evals"],
            "estimator.solver_iters": c["estimator.solver_iters"],
            "estimator.evaluator_builds": builds,
            "estimator.evaluator_build_s": t["estimator.build_profile"],
            "estimator.fast_path_share": (c["estimator.fast_profiles"] / builds
                                          if builds else 0.0),
            "estimator.sandwich_s": t["estimator.sandwich"],
            "estimator.self_s": s["estimator"],
            "montecarlo.draw_s": t["montecarlo.draw"],
            "montecarlo.measures_built": c["montecarlo.measures_built"],
            "montecarlo.score_s": t["montecarlo.score"],
            "montecarlo.self_s": s["montecarlo"],
            "closedform.calls": c["closedform.characteristics.calls"],
            "closedform.s": t["closedform.characteristics"],
            "tailstudy.load_s": t["tailstudy.load"],
            "tailstudy.rows_loaded": c["tailstudy.rows_loaded"],
            "tailstudy.rows_rejected": c["tailstudy.rows_rejected"],
            "tailstudy.measures_built": c["tailstudy.claim_measure.calls"],
            "tailstudy.build_s": t["tailstudy.claim_measure"],
            "tailstudy.baseline_s": t["tailstudy.baseline"],
            "tailstudy.self_s": s["tailstudy"],
            "cli.self_s": s["cli"],
            "cli.bytes_out": c["cli.bytes_out"],
        }
