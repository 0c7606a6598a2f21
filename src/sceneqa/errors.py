"""Exception hierarchy for the whole package.

An error crosses a contract boundary; a per-candidate outcome is a value.
Bad input, a broken invariant or a dead worker raises a SceneQaError, so
that callers (and the CLI) can catch one base class and map it to an exit
code. A trajectory that yields no route question, or a prediction with no
number or option to score, is an expected result, not an error: the
function returns its reason (``route_plan.ROUTE_SKIPS``) or status
(``evaluate.STATUSES``).
"""

import copyreg


class SceneQaError(Exception):
    """Base class for all package errors."""

    def __reduce__(self):
        # Rebuilt without __init__, whose arguments may differ from args, so
        # that a gen worker can hand any error back to the parent process.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


# --- geometry ---------------------------------------------------------------

class DegenerateDirection(SceneQaError):
    """A direction vector has no usable projection onto the floor plane."""


# --- parsing / ingest -------------------------------------------------------

class PlyError(SceneQaError):
    """A PLY file could not be read; carries the byte offset when known."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


class MalformedHeader(PlyError):
    """PLY header, or a value in the body, could not be parsed."""


class UnsupportedEncoding(PlyError):
    """PLY encoding the parser does not handle (e.g. binary big-endian)."""


class TruncatedBody(PlyError):
    """PLY body ended before the declared element count was read."""


class InputError(SceneQaError):
    """An input file is malformed; the message names the file (and line)."""


class SchemaViolation(SceneQaError):
    """A metadata document violates the schema; carries the offending field path."""

    def __init__(self, field_path, message=""):
        super().__init__(f"{field_path}: {message}" if message else field_path)
        self.field_path = field_path


class EmptyAfterFiltering(SceneQaError):
    """No object instance survived the minimum point-count filter."""


# --- scene graph ------------------------------------------------------------

class DanglingInstanceRef(SceneQaError):
    """A frame references an instance id absent from the scene metadata."""

    def __init__(self, frame_id, instance_id):
        super().__init__(f"frame {frame_id} references unknown instance {instance_id}")
        self.frame_id = frame_id
        self.instance_id = instance_id


class TooFewFrames(SceneQaError):
    """Graph does not contain enough frames for the requested operation."""


# --- evaluation -------------------------------------------------------------

class DuplicateQid(SceneQaError):
    """A predictions file contains the same question id twice."""


# --- generation -------------------------------------------------------------

class WorkerDied(SceneQaError):
    """A gen worker process ended abruptly (killed, or out of memory)."""


# --- fusion kernel ----------------------------------------------------------

class DimMismatch(SceneQaError):
    """Token-matrix or weight shapes are inconsistent."""
