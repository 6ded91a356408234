"""Exception hierarchy for the repro compiler stack.

Every layer of the flow (IR construction, scheduling, code generation,
offline compilation, runtime simulation) raises a subclass of
:class:`ReproError` so callers can catch stack-specific failures without
swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package.

    Two class-level flags drive the :mod:`repro.resilience` layer:

    ``transient``
        The failure is expected to clear on retry (a crashed AOC run, a
        dropped DMA transfer).  Retry policies only re-attempt transient
        errors; the compile cache never records them as deterministic
        outcomes.
    ``injected``
        The error was raised by an active :class:`~repro.resilience.FaultPlan`
        rather than by the model itself.  Injected failures are likewise
        never cached.
    """

    transient: bool = False
    injected: bool = False


class IRError(ReproError):
    """Malformed IR: bad dtypes, out-of-scope variables, invalid nodes."""


class ScheduleError(ReproError):
    """Invalid schedule transformation (unknown axis, bad factor, ...)."""


class LoweringError(ReproError):
    """A schedule could not be lowered to statement IR."""


class CodegenError(ReproError):
    """The OpenCL code generator met an unsupported construct."""


class AOCError(ReproError):
    """Base class for offline-compiler (synthesis) failures."""


class FitError(AOCError):
    """The design exceeds the board's ALUT/FF/BRAM/DSP resources.

    This is the error the thesis hits when mapping naive MobileNet/ResNet
    bitstreams onto the Arria 10: the kernel system plus static partition
    does not fit, so no bitstream is produced.
    """


class RoutingError(AOCError):
    """Quartus routing failed due to congestion (Section 6.5 of the thesis)."""


class RuntimeSimError(ReproError):
    """Host-runtime simulation error (deadlocked channels, bad enqueue...)."""


class TransferError(RuntimeSimError):
    """A host<->device DMA transfer (or its enqueue) failed.

    Transient by default: real PCIe transfers fail sporadically and
    succeed on re-enqueue, which is how the runtime recovers from them.
    """

    transient = True


class DeviceLostError(RuntimeSimError):
    """The device disappeared mid-run (bus reset, driver crash).

    Transient by default: re-opening the context usually recovers.
    """

    transient = True


class DeadlockError(RuntimeSimError):
    """The runtime watchdog's verdict: a stalled channel wait or a stage
    that exceeded the virtual-time budget.  Carries a diagnosis of which
    stage is blocked on which channel and the occupancy at stall time.
    """


class VerificationError(ReproError):
    """The static verifier found error-severity defects in a build.

    Raised by the ``verify`` pipeline stage (and by
    ``repro.verify.assert_clean``) before any synthesis time is spent.
    Carries the full :class:`~repro.verify.VerifyReport` as ``.report``
    so callers can render every diagnostic, not just the message.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class PipelineError(ReproError):
    """Misuse of the stage pipeline (missing artifact, duplicate stage).

    Domain failures inside a stage keep their own class (``FitError`` is
    still raised as ``FitError``) and gain ``.stage``/``.diagnostic``
    attributes pointing at the failing stage and the partial trace.
    """


class UnsupportedError(ReproError):
    """Feature intentionally out of scope for this reproduction."""
