"""Exception types shared across the package, and the text-file reader that
raises them."""


class DomainError(ValueError):
    """An argument falls outside the modeled domain (bad cell id, bad weights,
    malformed pattern, ...)."""


class FormatError(DomainError):
    """A graph or trace file does not conform to its text format."""


class GraphNotConnectedError(DomainError):
    """A query needed a path between two cells that have none."""


def read_text(path: str) -> str:
    """The UTF-8 contents of a file; undecodable bytes are a FormatError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None
