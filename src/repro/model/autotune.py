"""Method auto-selection from the analytic model.

The paper closes by hoping to "use our performance model to highlight
systems where PLFS may have a negative effect on performance, where
perhaps using just file partitioning or a log-based file system will
provide greater performance" (§V.A).  :func:`choose_method` does exactly
that: given a machine and a workload pattern it predicts every access
route and recommends one, flagging the regimes where PLFS hurts (the
Fig. 5 collapse) so an operator can fall back to plain MPI-IO.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.machine import MachineSpec
from repro.insights.metrics import IORunProfile
from repro.insights.rules import run_rules
from repro.lint.findings import RULES, Finding
from repro.mpiio.methods import ALL_METHODS, AccessMethod

from .perfmodel import Prediction, WorkloadPattern, predict_write


@dataclass
class Recommendation:
    """Outcome of an auto-tuning query."""

    method: AccessMethod
    predictions: dict[str, Prediction]
    plfs_helps: bool
    explanation: str
    #: insight findings from observed run data, when a profile was given —
    #: the detector evidence the explanation cites
    findings: list[Finding] = field(default_factory=list)
    #: ahead-of-run script findings (``repro.lint``), when supplied — the
    #: static counterpart of the observed evidence
    static_findings: list[Finding] = field(default_factory=list)

    @property
    def speedup_vs_mpiio(self) -> float:
        best = self.predictions[self.method.name].bandwidth_mbps
        base = self.predictions["MPI-IO"].bandwidth_mbps
        return best / base if base > 0 else float("inf")


def predict_all(
    machine: MachineSpec,
    pattern: WorkloadPattern,
    methods: list[AccessMethod] | None = None,
) -> dict[str, Prediction]:
    """Model predictions for every access route."""
    return {
        m.name: predict_write(machine, m, pattern)
        for m in (methods or ALL_METHODS)
    }


def choose_method(
    machine: MachineSpec,
    pattern: WorkloadPattern,
    methods: list[AccessMethod] | None = None,
    *,
    profile: IORunProfile | None = None,
    static_findings: list[Finding] | None = None,
) -> Recommendation:
    """Recommend the fastest access route for the pattern.

    Pass an :class:`~repro.insights.metrics.IORunProfile` built from an
    observed run and the recommendation will also run the insights rule
    engine on it, citing the detector evidence in its explanation — the
    model says *what* to pick, the detectors say *why* the observed
    behaviour supports it.  Pass *static_findings* (from
    :func:`repro.lint.lint_path` over the workload's script) and the
    ahead-of-run evidence is cited the same way: the paper's §V.A
    advisory, answered before the job is even submitted.
    """
    predictions = predict_all(machine, pattern, methods)
    best_name = max(predictions, key=lambda name: predictions[name].bandwidth_mbps)
    best = next(m for m in (methods or ALL_METHODS) if m.name == best_name)
    mpiio_bw = predictions["MPI-IO"].bandwidth_mbps if "MPI-IO" in predictions else 0.0
    best_bw = predictions[best_name].bandwidth_mbps
    plfs_helps = best.uses_plfs and best_bw > mpiio_bw

    if plfs_helps:
        explanation = (
            f"{best_name} predicted {best_bw:.0f} MB/s vs {mpiio_bw:.0f} MB/s "
            f"for plain MPI-IO ({best_bw / max(mpiio_bw, 1e-9):.1f}x); "
            f"bottleneck: {predictions[best_name].bottleneck}."
        )
    else:
        # The regime the paper warns about: PLFS at scale on a
        # dedicated-MDS file system.
        worst_plfs = min(
            (p for name, p in predictions.items() if name != "MPI-IO"),
            key=lambda p: p.bandwidth_mbps,
            default=None,
        )
        explanation = (
            f"PLFS predicted to hurt here (best PLFS route "
            f"{max((p.bandwidth_mbps for n, p in predictions.items() if n != 'MPI-IO'), default=0):.0f} MB/s "
            f"vs MPI-IO {mpiio_bw:.0f} MB/s)"
        )
        if worst_plfs is not None and "metadata" in worst_plfs.bottleneck:
            explanation += (
                "; the metadata server is the predicted bottleneck — the "
                "dropping-create storm exceeds what a dedicated MDS absorbs"
            )
        explanation += "."

    findings: list[Finding] = []
    if profile is not None:
        findings = run_rules(profile)
        if findings:
            top = findings[0]
            cited = ", ".join(
                f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in sorted(top.evidence.items())
            )
            explanation += (
                f"  Observed evidence [{top.severity.name}] {top.rule} "
                f"{top.name}: {RULES[top.rule].summary} ({cited})."
            )

    static_findings = list(static_findings or [])
    if static_findings:
        top_static = max(
            static_findings,
            key=lambda f: (int(f.severity), f.rule),
        )
        explanation += (
            f"  Static evidence [{top_static.severity.name}] "
            f"{top_static.rule} {top_static.name} at "
            f"{top_static.location()}: {top_static.detail}."
        )

    return Recommendation(
        method=best,
        predictions=predictions,
        plfs_helps=plfs_helps,
        explanation=explanation,
        findings=findings,
        static_findings=static_findings,
    )


def advise_from_profile(
    machine: MachineSpec,
    profile: IORunProfile,
    methods: list[AccessMethod] | None = None,
    *,
    static_findings: list[Finding] | None = None,
) -> Recommendation:
    """Model recommendation driven by an *observed* run profile.

    Reconstructs the abstract workload pattern from the profile's
    characterisation (writers, openers, volume, write size, collective
    or not) and answers the paper's §V.A question — "does PLFS help
    here?" — with both the analytic predictions and the rule engine's
    graded evidence attached.
    """
    pattern = WorkloadPattern(
        nodes=max(profile.nodes, 1),
        writers=max(profile.writers, 1),
        openers=max(profile.openers, profile.writers, 1),
        total_bytes=max(profile.total_bytes_written, 1.0),
        write_size=max(profile.typical_write_size, 1.0),
        collective=profile.collective,
    )
    return choose_method(
        machine,
        pattern,
        methods,
        profile=profile,
        static_findings=static_findings,
    )


def mds_safe_writer_limit(
    machine: MachineSpec,
    pattern: WorkloadPattern,
    methods: list[AccessMethod] | None = None,
) -> int | None:
    """Largest writer count (doubling search) at which PLFS still beats
    plain MPI-IO for this pattern shape — None if it never does.

    This is the "highlight systems where PLFS may have a negative effect"
    query: run once per machine and workload family, and you know where
    to stop scaling PLFS.
    """
    from dataclasses import replace

    best_ok: int | None = None
    writers = max(1, pattern.writers)
    for _ in range(24):
        scaled = replace(
            pattern,
            writers=writers,
            openers=max(pattern.openers, writers),
            nodes=max(pattern.nodes, writers // 12 + 1),
            total_bytes=pattern.total_bytes / pattern.writers * writers,
        )
        rec = choose_method(machine, scaled, methods)
        if rec.plfs_helps:
            best_ok = writers
        elif best_ok is not None:
            break
        writers *= 2
    return best_ok
