"""Append-only segment log — the durable backend's byte layer.

A log is a directory of numbered segment files (``seg-00000000.log``,
``seg-00000001.log``, …).  Entries are framed as

    [4-byte LE payload length][payload][4-byte LE CRC-32 of payload]

and addressed by ``(segment, offset)``.  Frames never span segments: when
the current segment would exceed ``max_segment_bytes`` it is *sealed* —
flushed, fsynced, closed — and a new segment starts.  ``sync()`` fsyncs
the live segment on demand (the chain layer calls it at checkpoints).

Crash recovery contract: a frame is *valid* iff its length prefix fits in
the file and the CRC matches.  A crash mid-write leaves a partial or
garbled tail; :meth:`frame_at` reports it invalid and the index layer
truncates back to the last entry it committed.  The ``fail_after_bytes``
fault-injection hook makes that scenario reproducible in tests: the next
append writes only a prefix of the frame and then raises
:class:`CrashPoint`, exactly what ``kill -9`` mid-``write`` leaves
behind.  An I/O error is not a torn tail: every read raises
:class:`StorageError` on one, so recovery stops instead of deleting
acknowledged entries.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..errors import StorageError

# Telemetry handles, cached per default-telemetry instance (same
# pattern as repro.crypto.signatures).  Every durability point routes
# through _timed_fsync: the fsync latency histogram is the persist
# layer's headline metric, and the "persist.fsync" span implicitly
# nests under whatever seal/commit span is active on this thread.
_TELEMETRY_HANDLES: tuple | None = None


def _fsync_instruments() -> tuple:
    global _TELEMETRY_HANDLES
    from ..obs.runtime import telemetry

    tel = telemetry()
    handles = _TELEMETRY_HANDLES
    if handles is None or handles[0] is not tel:
        handles = (
            tel,
            tel.registry.histogram("persist_fsync_seconds"),
            tel.registry.counter("persist_fsyncs_total"),
            tel.tracer,
        )
        _TELEMETRY_HANDLES = handles
    return handles


def _timed_fsync(fd: int) -> None:
    _, hist, count, tracer = _fsync_instruments()
    with tracer.span("persist.fsync"):
        t0 = time.perf_counter()
        os.fsync(fd)
        hist.observe(time.perf_counter() - t0)
    count.inc()

_LEN = struct.Struct("<I")
FRAME_OVERHEAD = 8          # 4-byte length + 4-byte CRC
_MAX_PAYLOAD = 1 << 28      # 256 MiB sanity bound on the length prefix

# Bit 31 of the length word marks a zlib-compressed frame body.  The
# sanity bound leaves bits 28..31 permanently clear in legacy frames, so
# the flag is unambiguous — old logs read fine under new code and new
# *uncompressed* frames read fine under old code.  Compression is a
# per-frame property of the bytes on disk, not a log-level mode: a log
# opened with ``codec="raw"`` still decodes compressed frames, so codec
# choice never has to match across reopen.
_FLAG_COMPRESSED = 0x8000_0000
_LEN_MASK = 0x7FFF_FFFF


class SegmentCodec:
    """Frame-body codec: ``raw`` stores payloads verbatim; ``zlib``
    deflates each payload and keeps the smaller of the two (so
    incompressible payloads never grow).  The CRC always covers the
    *stored* bytes — corruption is detected before any decompression."""

    RAW = "raw"
    ZLIB = "zlib"

    def __init__(self, name: str = RAW, level: int = 6) -> None:
        if name not in (self.RAW, self.ZLIB):
            raise StorageError(f"unknown segment codec {name!r}")
        self.name = name
        self.level = level

    def encode(self, payload: bytes) -> tuple[bytes, bool]:
        """``(stored_bytes, compressed?)`` for one frame body."""
        if self.name == self.ZLIB:
            packed = zlib.compress(payload, self.level)
            if len(packed) < len(payload):
                return packed, True
        return payload, False

    @staticmethod
    def decode(stored: bytes, compressed: bool) -> bytes | None:
        """Inverse of :meth:`encode`; ``None`` on a garbled body."""
        if not compressed:
            return stored
        try:
            return zlib.decompress(stored)
        except zlib.error:
            return None


class CrashPoint(StorageError):
    """Raised by the fault-injection hook to simulate a mid-write crash."""


@dataclass(frozen=True)
class LogLocation:
    """Address of one frame: segment number, byte offset, total frame length."""

    segment: int
    offset: int
    length: int

    @property
    def end_offset(self) -> int:
        return self.offset + self.length


def _segment_name(segment: int) -> str:
    return f"seg-{segment:08d}.log"


def _read_frame(fh, offset: int) -> tuple[bytes, int] | None:
    """Parse the frame at ``offset`` of an open segment file:
    ``(payload, on_disk_frame_length)``, or ``None`` for a short,
    garbled or CRC-bad frame.  An I/O error raises
    :class:`StorageError` (the one frame parser: ``read_many`` and
    ``frame_info_at``, and through it ``read`` and ``scan``)."""
    try:
        fh.seek(offset)
        head = fh.read(4)
        if len(head) != 4:
            return None
        (word,) = _LEN.unpack(head)
        length = word & _LEN_MASK
        if length > _MAX_PAYLOAD:
            return None
        body = fh.read(length + 4)
    except OSError as exc:
        raise StorageError(
            f"cannot read {fh.name} at offset {offset}: {exc}"
        ) from exc
    if len(body) != length + 4:
        return None
    stored = body[:length]
    if zlib.crc32(stored) != _LEN.unpack_from(body, length)[0]:
        return None
    payload = SegmentCodec.decode(stored, bool(word & _FLAG_COMPRESSED))
    if payload is None:
        return None
    return payload, FRAME_OVERHEAD + length


def _invalid_frame(segment: int, offset: int) -> StorageError:
    return StorageError(
        f"invalid frame at segment {segment} offset {offset} "
        "(index and log disagree — run recovery)"
    )


class SegmentLog:
    """Append-only, CRC-framed, segment-rolled byte log."""

    def __init__(self, directory: str | os.PathLike,
                 max_segment_bytes: int = 4 * 1024 * 1024,
                 codec: str | SegmentCodec = SegmentCodec.RAW) -> None:
        if max_segment_bytes < FRAME_OVERHEAD + 1:
            raise StorageError("max_segment_bytes is too small to hold a frame")
        self.directory = os.fspath(directory)
        self.max_segment_bytes = max_segment_bytes
        self.codec = (codec if isinstance(codec, SegmentCodec)
                      else SegmentCodec(codec))
        os.makedirs(self.directory, exist_ok=True)
        # Fault injection: when set, the next append writes only this many
        # bytes of the frame, flushes, and raises CrashPoint.
        self.fail_after_bytes: int | None = None
        self.appends = 0
        self.segments_sealed = 0
        # Fork guard: exec workers inherit this object (and possibly its
        # open write fd) across fork, but must never write — a child and
        # the parent sharing one append fd would interleave frames.  The
        # read path needs no guard: no read handle is cached on this
        # object.  frame_info_at/read open and close one per call;
        # read_many's handles live until its iterator is exhausted or
        # closed, so a forked child must not resume a parent's iterator.
        self._owner_pid = os.getpid()
        segments = self._discover()
        self._current = segments[-1] if segments else 0
        # Size of the live segment, tracked in memory so the append hot
        # path never stats the filesystem.
        self._current_size = self.segment_size(self._current)
        self._write_fh = None   # opened lazily by append/truncate

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _discover(self) -> list[int]:
        found = []
        for name in os.listdir(self.directory):
            if name.startswith("seg-") and name.endswith(".log"):
                try:
                    found.append(int(name[4:-4]))
                except ValueError:
                    continue
        return sorted(found)

    def _path(self, segment: int) -> str:
        return os.path.join(self.directory, _segment_name(segment))

    def segment_size(self, segment: int) -> int:
        """Bytes in ``segment``; 0 if its file is missing.  Any other
        I/O error raises :class:`StorageError`: a wrong size would make
        the next append report an offset its frame is not at."""
        path = self._path(segment)
        try:
            return os.path.getsize(path)
        except FileNotFoundError:
            return 0
        except OSError as exc:
            raise StorageError(f"cannot stat {path}: {exc}") from exc

    @property
    def current_segment(self) -> int:
        return self._current

    def end_location(self) -> tuple[int, int]:
        """``(segment, offset)`` one past the last byte written."""
        return self._current, self._current_size

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _open_for_append(self):
        if os.getpid() != self._owner_pid:
            raise StorageError(
                "segment log crossed a fork: only the owning process "
                "may append (exec workers hold no durable handles)"
            )
        if self._write_fh is None:
            self._write_fh = open(self._path(self._current), "ab")
        return self._write_fh

    def _seal_current(self) -> None:
        """Flush + fsync + close the live segment and start the next."""
        fh = self._open_for_append()
        fh.flush()
        _timed_fsync(fh.fileno())
        fh.close()
        self._write_fh = None
        self._current += 1
        self._current_size = 0
        self.segments_sealed += 1

    def _frame(self, payload: bytes) -> bytes:
        """Encode + frame one payload (codec applied, CRC over the
        stored bytes)."""
        if len(payload) > _MAX_PAYLOAD:
            raise StorageError("payload exceeds the frame sanity bound")
        stored, compressed = self.codec.encode(payload)
        word = len(stored) | (_FLAG_COMPRESSED if compressed else 0)
        return _LEN.pack(word) + stored + _LEN.pack(zlib.crc32(stored))

    def append(self, payload: bytes) -> LogLocation:
        """Frame and append ``payload``; returns its address.

        The frame is flushed to the OS before returning (readable by any
        other handle); fsync happens at seal/sync/close time.
        """
        if self._current_size >= self.max_segment_bytes:
            self._seal_current()
        fh = self._open_for_append()
        offset = self._current_size
        frame = self._frame(payload)
        if self.fail_after_bytes is not None:
            cut = min(self.fail_after_bytes, len(frame))
            self.fail_after_bytes = None
            fh.write(frame[:cut])
            fh.flush()
            self._current_size += cut
            raise CrashPoint(
                f"injected crash after {cut}/{len(frame)} frame bytes"
            )
        fh.write(frame)
        fh.flush()
        self._current_size += len(frame)
        self.appends += 1
        return LogLocation(self._current, offset, len(frame))

    def append_many(self, payloads: Sequence[bytes],
                    fsync: bool = True) -> list[LogLocation]:
        """Group-commit append: frame every payload, write each segment's
        share as **one** buffered write, and (by default) fsync once at
        the end — the batch becomes the durability point.

        Compared to a loop of :meth:`append` (one write + flush per
        frame, durability deferred to the next checkpoint), a group of N
        frames costs one write and one fsync per segment touched, and
        the caller knows the whole group is on stable storage when the
        call returns.  Frames still never span segments.

        The ``fail_after_bytes`` crash hook is honored across the
        *concatenated* group: the injected crash leaves a byte-exact
        prefix of the group on disk, so recovery tests can kill a group
        commit at any byte, including between two frames.
        """
        locations: list[LogLocation] = []
        chunk: list[bytes] = []
        chunk_bytes = 0
        for payload in payloads:
            if self._current_size + chunk_bytes >= self.max_segment_bytes \
                    and chunk:
                self._write_chunk(b"".join(chunk), fsync=False)
                chunk, chunk_bytes = [], 0
            if self._current_size >= self.max_segment_bytes:
                self._seal_current()
            frame = self._frame(payload)
            locations.append(LogLocation(
                self._current, self._current_size + chunk_bytes, len(frame)
            ))
            chunk.append(frame)
            chunk_bytes += len(frame)
        if chunk:
            self._write_chunk(b"".join(chunk), fsync=fsync)
        elif fsync:
            self.sync()
        self.appends += len(locations)
        return locations

    def _write_chunk(self, data: bytes, fsync: bool) -> None:
        """One buffered write of several already-framed entries into the
        live segment (crash hook honored byte-exactly: the budget counts
        down across the group's chunks, so a crash point beyond a
        segment roll lands at exactly the requested byte)."""
        fh = self._open_for_append()
        if self.fail_after_bytes is not None:
            if self.fail_after_bytes <= len(data):
                cut = self.fail_after_bytes
                self.fail_after_bytes = None
                fh.write(data[:cut])
                fh.flush()
                self._current_size += cut
                raise CrashPoint(
                    f"injected crash after {cut}/{len(data)} chunk bytes"
                )
            self.fail_after_bytes -= len(data)
        fh.write(data)
        fh.flush()
        self._current_size += len(data)
        if fsync:
            _timed_fsync(fh.fileno())

    def sync(self) -> None:
        """Flush + fsync the live segment (checkpoint durability)."""
        if self._write_fh is not None:
            self._write_fh.flush()
            _timed_fsync(self._write_fh.fileno())

    def close(self) -> None:
        if self._write_fh is not None:
            self._write_fh.flush()
            _timed_fsync(self._write_fh.fileno())
            self._write_fh.close()
            self._write_fh = None

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _flush_writes(self) -> None:
        # Reads go through their own handles: make appends still in the
        # write handle's buffer visible to them first.
        if self._write_fh is not None:
            self._write_fh.flush()

    def _open_segment(self, segment: int):
        """Read handle on one segment, or ``None`` if its file is
        missing.  Any other I/O error raises :class:`StorageError`: it
        says nothing about the bytes on disk, so recovery must not read
        it as a torn tail and delete acknowledged entries."""
        path = self._path(segment)
        try:
            return open(path, "rb")
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StorageError(f"cannot open {path}: {exc}") from exc

    def frame_info_at(self, segment: int,
                      offset: int) -> tuple[bytes, int] | None:
        """``(payload, on_disk_frame_length)`` for the frame at
        ``(segment, offset)``, or ``None`` if the frame is partial,
        garbled, or absent (CRC checked before decompression).  An I/O
        error raises :class:`StorageError`.

        The on-disk length is what the index stores in its ``length``
        column; with a compressing codec it differs from
        ``len(payload) + FRAME_OVERHEAD``, so recovery must compare
        against this, never against the decoded payload size.
        """
        self._flush_writes()
        fh = self._open_segment(segment)
        if fh is None:
            return None
        with fh:
            return _read_frame(fh, offset)

    def frame_at(self, segment: int, offset: int) -> bytes | None:
        """Payload of the frame at ``(segment, offset)``, or ``None`` if
        the frame is partial, garbled, or absent (CRC checked)."""
        info = self.frame_info_at(segment, offset)
        return None if info is None else info[0]

    def read(self, segment: int, offset: int) -> bytes:
        """Payload at an address the index vouches for; raises on damage."""
        payload = self.frame_at(segment, offset)
        if payload is None:
            raise _invalid_frame(segment, offset)
        return payload

    def read_many(self, addresses: Iterable[tuple[int, int]]
                  ) -> Iterator[bytes]:
        """Payloads at index-vouched ``(segment, offset)`` addresses, in
        the order given; raises on damage like :meth:`read`.

        Each segment is opened once, and every handle is closed when
        the iterator is exhausted or closed; nothing is cached past it.
        The handles are open while a caller holds the iterator, so a
        forked child must not resume a parent's iterator, and a
        compaction/truncation must not run while one is suspended.
        """
        self._flush_writes()
        handles: dict = {}
        try:
            for segment, offset in addresses:
                fh = handles.get(segment)
                if fh is None:
                    fh = self._open_segment(segment)
                    if fh is None:
                        raise _invalid_frame(segment, offset)
                    handles[segment] = fh
                info = _read_frame(fh, offset)
                if info is None:
                    raise _invalid_frame(segment, offset)
                yield info[0]
        finally:
            for fh in handles.values():
                fh.close()

    def scan(self, start: tuple[int, int] = (0, 0)
             ) -> Iterator[tuple[LogLocation, bytes]]:
        """Iterate valid frames from ``start``, stopping at the first
        invalid one (the recovery boundary)."""
        segment, offset = start
        while True:
            info = self.frame_info_at(segment, offset)
            if info is None:
                # End of this segment: advance iff a later segment exists.
                nxt = segment + 1
                if (offset == self.segment_size(segment)
                        and os.path.exists(self._path(nxt))):
                    segment, offset = nxt, 0
                    continue
                return
            payload, frame_length = info
            loc = LogLocation(segment, offset, frame_length)
            yield loc, payload
            offset = loc.end_offset

    # ------------------------------------------------------------------
    # Truncation (recovery + reorgs)
    # ------------------------------------------------------------------
    def truncate_to(self, segment: int, offset: int) -> None:
        """Discard every byte at/after ``(segment, offset)``.

        Used two ways: recovery truncates a garbled tail, and reorgs cut
        the log back to the fork point before appending the new suffix.
        """
        self.close()
        for seg in self._discover():
            if seg > segment:
                os.unlink(self._path(seg))
        path = self._path(segment)
        if os.path.exists(path):
            with open(path, "rb+") as fh:
                fh.truncate(offset)
        elif offset != 0:
            raise StorageError(
                f"cannot truncate into missing segment {segment}"
            )
        self._current = segment
        self._current_size = offset
