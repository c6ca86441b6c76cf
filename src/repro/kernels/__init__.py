"""Native-speed kernel backends for the columnar sketch engine.

The three hot kernels of the engine -- the ingest fold
(:func:`~repro.sketch.flat_node_sketch.columnar_fold` /
``fold_hashed``), the whole-round query reduce
(:func:`~repro.sketch.flat_node_sketch.segmented_xor`), and the batched
bucket decoder
(:func:`~repro.sketch.flat_node_sketch.decode_column_batch`) -- have
compiled twins selected through ``config.kernel_backend``:

``"numpy"``
    The default: the pure-numpy kernels, no compiled code anywhere.
``"native"``
    Require the compiled provider; raise
    :class:`~repro.exceptions.ConfigurationError` when it is not usable.
``"auto"``
    Use the compiled provider when it is available, fall back to numpy
    silently otherwise (the selection is logged once per process).

The compiled provider is :mod:`repro.kernels.native_cc`: a small C
library compiled at first use with the host toolchain and driven
through :mod:`ctypes`.

The provider is property-tested **bit-identical** to the numpy path
(``tests/test_native_kernels.py``): same seed in, same tensors, forests,
and stats out, across packed/wide bucket modes, flat/paged pools, and
serial/sharded/distributed ingest.  ``kernel_backend`` therefore stays
out of :meth:`~repro.core.config.GraphZeppelinConfig.sketch_fingerprint`
-- snapshots interchange freely across backends.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.observability.log import get_logger

logger = get_logger(__name__)

#: Valid values of ``config.kernel_backend``.
KERNEL_BACKENDS = ("numpy", "native", "auto")

_lock = threading.Lock()
_resolved = False
_provider = None
_unavailable_reason: Optional[str] = None
_logged_choice = False


def native_kernels():
    """The process-wide native kernel provider, or ``None``.

    Resolution happens once per process: the runtime-compiled C
    provider is built (or loaded from its cache) on first call.  Both
    the provider instance and a failure are cached, so repeated calls
    are cheap and every pool in the process shares one compiled library.
    """
    global _resolved, _provider, _unavailable_reason
    if _resolved:
        return _provider
    with _lock:
        if _resolved:
            return _provider
        try:
            from repro.kernels.native_cc import CcKernels

            _provider = CcKernels()
        except Exception as exc:  # no compiler, or the build failed
            _unavailable_reason = f"cc: {exc}"
        _resolved = True
    return _provider


def native_unavailable_reason() -> Optional[str]:
    """Why no native provider loaded (``None`` when one did)."""
    native_kernels()
    return _unavailable_reason


def resolve_kernels(backend: str):
    """Resolve a ``kernel_backend`` config value to a provider.

    Returns a provider instance for native execution or ``None`` for
    the numpy kernels.  ``"native"`` raises
    :class:`~repro.exceptions.ConfigurationError` when no provider is
    usable; ``"auto"`` falls back to numpy and logs the choice once per
    process.
    """
    global _logged_choice
    if backend == "numpy":
        return None
    if backend not in KERNEL_BACKENDS:
        raise ConfigurationError(
            f"unknown kernel_backend {backend!r} (use 'numpy', 'native', or 'auto')"
        )
    provider = native_kernels()
    if provider is None and backend == "native":
        raise ConfigurationError(
            "kernel_backend='native' but no native provider is usable "
            f"({_unavailable_reason}); install a C compiler or use 'auto'"
        )
    if not _logged_choice:
        _logged_choice = True
        if provider is None:
            logger.info(
                "kernel_backend=auto: no native provider (%s); using numpy kernels",
                _unavailable_reason,
            )
        else:
            logger.info(
                "kernel_backend=%s: using native '%s' kernels", backend, provider.name
            )
    return provider


def _reset_for_tests() -> None:
    """Forget the cached provider resolution (test hook only)."""
    global _resolved, _provider, _unavailable_reason, _logged_choice
    with _lock:
        _resolved = False
        _provider = None
        _unavailable_reason = None
        _logged_choice = False
