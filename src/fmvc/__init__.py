"""Gaze-contingent video codec built on displaced frame differences,
eccentricity-based bit allocation, and a rate-distortion metrics harness.

Import the layers from their modules (``fmvc.codec``, ``fmvc.metrics``, ...).
"""

from .errors import (
    BitstreamError,
    ConfigError,
    ContractViolation,
    FmvcError,
    IoError,
    ParseError,
    TruncatedStream,
    UnsupportedFormat,
    UnsupportedVersion,
)

__version__ = "0.1.0"
