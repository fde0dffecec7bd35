"""Exception hierarchy shared by all modules, and how a refusal echoes a value."""


class InputError(ValueError):
    """Malformed or mutually inconsistent arguments (wrong surface, bad index, bad file)."""


class CapacityError(RuntimeError):
    """The request exceeds a documented desk-scale bound."""


class NotApplicable(RuntimeError):
    """A move's applicability criterion fails on this input; the input itself is valid."""


class Unsupported(RuntimeError):
    """The operation is outside the implemented scope (e.g. invariants over a non-disk base)."""


def clipped(value: object) -> str:
    """The text of ``value`` cut to 20 characters, so that a refusal that
    echoes it stays one short line.  A value holding an int past the
    int-string digit limit has no text, and reads as a placeholder."""
    try:
        text = str(value)
    except ValueError:
        return "(too many digits to show)"
    return text if len(text) <= 20 else text[:20] + "..."
