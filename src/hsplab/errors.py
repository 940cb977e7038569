"""Exception hierarchy shared by all hsplab modules."""


class HspError(Exception):
    """Base class for all library errors."""


class InvalidEncoding(HspError):
    """A bitstring fed to a group oracle is not a valid element encoding."""


class BadSpec(HspError):
    """A group specification is malformed or out of the supported range."""


class BoundExceeded(HspError):
    """An enumeration grew past its configured bound."""


class NotAbelian(HspError):
    """A subgroup expected to be Abelian is not."""


class TooLarge(HspError):
    """The statevector sampler cap was exceeded."""


class OracleInconsistent(HspError):
    """The collision pattern of an oracle is not a subgroup coset partition."""


class RoundBudgetExceeded(HspError):
    """A sampling loop exceeded its round budget."""


class NoOrderBound(HspError):
    """Order finding was invoked without any multiple of the order."""


class NotCommuting(HspError):
    """Constructive membership requires pairwise commuting inputs."""


class QuotientNotAbelian(HspError):
    """The quotient modulo the hidden subgroup is not Abelian."""


class CommutatorBoundExceeded(HspError):
    """The commutator subgroup is larger than the configured bound."""


class NotElementaryAbelian2(HspError):
    """The supplied normal subgroup is not an elementary Abelian 2-group."""


class NotNormal(HspError):
    """The supplied subgroup is not normal in the ambient group."""


class QuotientBoundExceeded(HspError):
    """The quotient G/N is larger than the configured bound."""


class UnsupportedInstance(HspError):
    """No implemented solver applies to the instance."""


class BudgetExceeded(HspError):
    """A solver issued more f-queries than its closed-form budget allows."""


class InvariantBroken(HspError):
    """An internal invariant failed: a library bug, not a bad input."""
