"""Network substrate: wire messages, codecs, clocks and transports.

The server and application instances are sans-I/O; this package moves
their messages — deterministically in memory for experiments, or over
real TCP sockets — and defines the pluggable pieces around them: the
:class:`~repro.net.codec.Codec` protocol with its registry
(``json``/``binary``, docs/PROTOCOL.md) and the communicator registry
third-party transports plug into (:mod:`repro.net.registry`,
docs/COMMUNICATORS.md).

``__all__`` below is the supported public surface of this package;
anything else is internal and may change without notice.
"""

from repro.net.clock import Clock, SimClock, WallClock
from repro.net.codec import (
    HEADER_SIZE,
    MAX_FRAME_SIZE,
    Codec,
    JsonCodec,
    StreamDecoder,
    codec_names,
    decode,
    decode_batch,
    default_codec,
    default_codec_name,
    encode,
    encode_batch,
    get_codec,
    register_codec,
    wire_size,
)
from repro.net.memory import MemoryNetwork, MemoryTransport
from repro.net.message import Message
from repro.net import message as kinds
from repro.net.registry import (
    BACKENDS,
    communicator_names,
    get_communicator,
    register_communicator,
)
from repro.net.tcp import TcpClientTransport
from repro.net.transport import (
    ROUTER_ID,
    SERVER_ID,
    TrafficStats,
    Transport,
    resolve_destination,
)

__all__ = [
    "BACKENDS",
    "Clock",
    "Codec",
    "HEADER_SIZE",
    "JsonCodec",
    "MAX_FRAME_SIZE",
    "MemoryNetwork",
    "MemoryTransport",
    "Message",
    "ROUTER_ID",
    "SERVER_ID",
    "SimClock",
    "StreamDecoder",
    "TcpClientTransport",
    "TrafficStats",
    "Transport",
    "WallClock",
    "codec_names",
    "communicator_names",
    "decode",
    "decode_batch",
    "default_codec",
    "default_codec_name",
    "encode",
    "encode_batch",
    "get_codec",
    "get_communicator",
    "kinds",
    "register_codec",
    "register_communicator",
    "resolve_destination",
    "wire_size",
]
