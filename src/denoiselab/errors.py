"""Exception types shared across the toolkit.

Each failure category gets its own class so callers (and the CLI exit-code
mapping) can tell them apart.
"""


def annotate(exc: BaseException, where: str, **attrs) -> None:
    """Record where ``exc`` happened on the exception itself.

    ``attrs`` (such as ``step`` and ``sigma``) become attributes. An exception
    with at most one argument also gets ``where`` prefixed to its message;
    structured arguments, such as an OSError's errno and strerror, stay as
    they are, because ``str`` of such an error ignores rewritten arguments.
    """
    for name, value in attrs.items():
        setattr(exc, name, value)
    if len(exc.args) <= 1:
        exc.args = (f"{where}: {exc}",)


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class FormatError(ToolkitError):
    """Malformed file: bad magic, unparseable header, truncated payload."""


class DimensionMismatchError(ToolkitError):
    """Shapes or declared dimensions disagree."""


class ValueRangeError(ToolkitError):
    """A value is outside its documented range."""


class DivergenceError(ToolkitError):
    """Training loss blew up; carries the step (and sigma) at which it was detected."""

    def __init__(self, message: str, step: int | None = None, sigma: float | None = None):
        super().__init__(message)
        self.step = step
        self.sigma = sigma


class PluginError(ToolkitError):
    """Base class for external denoiser plugin failures."""


class PluginProtocolError(PluginError):
    """The child process violated the wire protocol."""


class PluginExitError(PluginError):
    """The child process exited while a reply was pending."""


class PluginTimeoutError(PluginError):
    """The child process did not reply within the deadline."""
