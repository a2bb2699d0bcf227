"""The two bases of the errors that input can raise.

Every named error that a network file, a JSON payload or a command-line
argument can reach derives from one of them, and the base alone decides
the exit code of the command-line interface: ``InvalidInput`` exits 2,
``Unsupported`` exits 3.  Errors that state an internal invariant derive
from ``ValueError`` alone, so that a fault there still shows its traceback.
"""


class InvalidInput(ValueError):
    """Input that is malformed or breaks a condition of the data it encodes."""


class Unsupported(ValueError):
    """Valid input of a class the engine does not handle, or past a size limit."""
