"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single except clause while still
letting programming errors (``TypeError`` etc.) propagate.
"""


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class SpecError(ReproError):
    """A library/application specification is malformed or inconsistent."""


class ProfilingError(ReproError):
    """The profiler could not be installed, started, or stopped."""


class OptimizationError(ReproError):
    """The code optimizer could not safely transform a source file."""


class DeploymentError(ReproError):
    """A function package could not be built, deployed, or invoked."""


class WorkloadError(ReproError):
    """A workload/trace definition is invalid or exhausted."""


class CheckpointError(WorkloadError):
    """A replay checkpoint (or shard manifest) is corrupt or inconsistent.

    Raised whenever on-disk checkpoint state cannot be trusted — truncated
    JSON, a scratch file left by a crashed writer, a manifest whose shard
    files are missing, or a resume whose worker count / fingerprint /
    partition disagrees with what the checkpoint was written under.
    Resuming past any of these would silently blend two replays into one
    report, so they all fail loudly instead.
    """

