"""Wire formats: the paper's compact format plus two status-quo baselines.

``compact`` and ``tagged`` are generated by one schema compiler
(:mod:`repro.serde.compact`, with :mod:`repro.serde.tagged` its second
back-end), so timing one against the other compares formats; ``json``
interprets ``json.loads`` output.  See each module's docstring for its
format, and :mod:`repro.serde.base` for the :class:`Codec` interface.
:func:`codec_by_name` is the lookup used by deployers and benchmarks to
select a data-plane format.
"""

from repro.serde.base import Codec, Reader
from repro.serde.compact import CompactCodec
from repro.serde.compact import CODEC as COMPACT
from repro.serde.jsoncodec import JSONCodec
from repro.serde.jsoncodec import CODEC as JSON
from repro.serde.tagged import TaggedCodec
from repro.serde.tagged import CODEC as TAGGED

_BY_NAME: dict[str, Codec] = {
    "compact": COMPACT,
    "tagged": TAGGED,
    "json": JSON,
}


def codec_by_name(name: str) -> Codec:
    """Return the shared codec instance registered under ``name``.

    Valid names are ``compact`` (the paper's format), ``tagged``
    (protobuf-style baseline), and ``json``.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown codec {name!r}; expected one of {sorted(_BY_NAME)}"
        ) from None


__all__ = [
    "Codec",
    "Reader",
    "CompactCodec",
    "TaggedCodec",
    "JSONCodec",
    "COMPACT",
    "TAGGED",
    "JSON",
    "codec_by_name",
]
