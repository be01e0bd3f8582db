"""Error taxonomy shared across the library and the CLI exit codes."""


class MCVError(Exception):
    """Base class for library errors.  The CLI exits with `exit_code` and,
    when `label` is set, writes "mcvlie: <label>: <message>" to stderr."""

    exit_code = 1  # error classes without their own code count as input errors
    label = None


class InputError(MCVError):
    """Malformed input: bad JSON shapes, unparsable rationals, unknown ids."""

    exit_code = 1
    label = "input error"


class PreconditionError(MCVError):
    """A mathematical precondition fails (non-integrable input, lambda = 0,
    dimension mismatches between otherwise well-formed values)."""

    exit_code = 2
    label = "precondition failed"


class InternalInvariantError(MCVError):
    """An invariant the theory guarantees was violated at runtime: a bug."""

    exit_code = 3
    label = "internal invariant breached"
