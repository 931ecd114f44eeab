import struct

import pytest
from hypothesis import given, strategies as st

from censorprobe import dnswire


def test_encode_query_layout():
    raw = dnswire.encode_query(0x1234, "www.example.com")
    txid, flags, qd, an, ns, ar = struct.unpack(">HHHHHH", raw[:12])
    assert (txid, flags, qd, an, ns, ar) == (0x1234, 0x0100, 1, 0, 0, 0)
    assert raw[12:] == b"\x03www\x07example\x03com\x00\x00\x01\x00\x01"


def test_response_round_trip_answers():
    raw = dnswire.encode_response(7, "a.test", dnswire.RCODE_NOERROR, ["1.2.3.4", "5.6.7.8"])
    msg = dnswire.decode_message(raw)
    assert msg.txid == 7
    assert msg.is_response
    assert msg.rcode == dnswire.RCODE_NOERROR
    assert msg.qname == "a.test"
    assert msg.answers == ["1.2.3.4", "5.6.7.8"]


def test_response_round_trip_nxdomain():
    raw = dnswire.encode_response(9, "gone.test", dnswire.RCODE_NXDOMAIN)
    msg = dnswire.decode_message(raw)
    assert msg.rcode == dnswire.RCODE_NXDOMAIN
    assert msg.answers == []


def test_decode_compressed_name():
    # pointer in the answer name back to the question name at offset 12
    name, end = dnswire.decode_name(b"\x00" * 12 + b"\x03abc\x00" + b"\xc0\x0c", 17)
    assert name == "abc"
    assert end == 19


def test_decode_rejects_truncated():
    with pytest.raises(dnswire.DnsDecodeError):
        dnswire.decode_message(b"\x00\x01\x02")


def test_decode_rejects_bad_labels():
    header = struct.pack(">HHHHHH", 1, 0x0100, 1, 0, 0, 0)
    question = b"\x00\x01\x00\x01"
    non_ascii = header + b"\x02\xc3\xbc\x04test\x00" + question
    dotted = header + b"\x01.\x00" + question
    reserved_type = header + b"\x41" + b"a" * 65 + b"\x00" + question
    for raw in (non_ascii, dotted, reserved_type):
        with pytest.raises(dnswire.DnsDecodeError):
            dnswire.decode_message(raw)


def test_decode_rejects_pointer_loop():
    data = b"\x00" * 12 + b"\xc0\x0c"
    with pytest.raises(dnswire.DnsDecodeError):
        dnswire.decode_name(data, 12)


_names = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=20),
    min_size=1,
    max_size=5,
).map(".".join)


@given(_names, st.integers(0, 0xFFFF))
def test_query_encode_decode_round_trip(name, txid):
    msg = dnswire.decode_message(dnswire.encode_query(txid, name))
    assert msg.qname == name
    assert msg.txid == txid
    assert not msg.is_response
    assert msg.qtype == dnswire.QTYPE_A
