"""Exception hierarchy for the TensorTEE reproduction.

The security-relevant errors mirror the failure classes of the paper's
threat model (Sec. 2.4): integrity violations (tampering), freshness
violations (replay), and protocol violations (e.g. attempting to move a
poisoned tensor across the verification barrier).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A configuration value is inconsistent or out of the modelled range."""


class UnknownJobError(ConfigError):
    """A ``repro serve`` request named a job id the queue does not hold."""


class JobConflictError(ConfigError):
    """A queue transition the job's current state refuses.

    For example a cancel of a job that already started, or a finish of a
    job that is not running.
    """


class ServiceError(ReproError):
    """A ``repro serve`` request failed (unreachable server, bad job id, ...)."""

    def __init__(self, message: str, status: int = 0) -> None:
        super().__init__(message)
        self.status = status  #: HTTP status code when the server answered


class SecurityError(ReproError):
    """Base class for detected attacks / violated security invariants."""


class IntegrityError(SecurityError):
    """MAC verification failed: the ciphertext or metadata was tampered with."""


class ReplayError(IntegrityError):
    """Freshness check failed: stale (ciphertext, MAC) pair was replayed."""


class CodeIntegrityError(IntegrityError):
    """Instruction fetch failed its (non-delayed) verification (Sec. 4.3)."""


class PoisonedTensorError(SecurityError):
    """A tensor with a set poison bit reached a communication boundary."""


class AttestationError(SecurityError):
    """Remote attestation failed: enclave measurement/report mismatch."""


class ProtocolError(ReproError):
    """A transfer-protocol step was invoked in an invalid state."""


class EnclaveError(ReproError):
    """Enclave lifecycle misuse (e.g. entering a destroyed enclave)."""


class SimulationError(ReproError):
    """Internal simulator invariant violated (a bug, not an attack)."""
