/**
 * @file
 * Versioned on-disk format for func::InstTrace — the persistent trace
 * store.
 *
 * A trace file is one fixed little-endian header followed by a
 * payload: the workload key string, the captured syscall output, the
 * output watermarks, the SoA column data of every 4096-record chunk,
 * and a chunk directory locating each stored column. The header
 * carries magic, format version, the program's image digest, the
 * record count, and a word-wide four-lane FNV-1a checksum over the
 * whole payload (memory-speed to validate), so a loader can reject
 * truncated, corrupted, stale, or foreign files before trusting a
 * byte of them.
 *
 * No nextPc column is stored: the dynamic stream is sequential
 * (record i+1 executes at record i's nextPc — verified at save
 * time), so each chunk's pc column carries n+1 entries, the sentinel
 * being the last record's nextPc, and the loader aliases
 * nextPc = pc + 1. That is 8 bytes/record the file never pays.
 *
 * Every column is stored as its native fixed-width array at an
 * 8-byte-aligned offset. loadTraceFile() mmaps the file read-only and
 * *borrows* the columns straight out of the mapping
 * (InstTrace::Chunk::backing keeps it alive), so loading a multi-GB
 * trace is O(pages touched) and replay never copies a record. The
 * header's flags word is reserved and must be zero; the loader
 * rejects a file with any flag set.
 *
 * Writes are atomic: the file is assembled next to its final path as
 * `<path>.tmp.<pid>.<n>` and rename()d into place, so concurrent
 * writers racing the same key publish one complete winner and
 * readers never observe a torn file.
 */

#ifndef DSCALAR_FUNC_TRACE_FILE_HH
#define DSCALAR_FUNC_TRACE_FILE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "func/inst_trace.hh"

namespace dscalar {
namespace func {

/** Current trace file format version (header field). */
constexpr std::uint32_t kTraceFileVersion = 1;

/** Parsed header summary, for tools, benches, and tests. */
struct TraceFileInfo
{
    std::uint32_t version = 0;
    std::uint64_t records = 0;
    bool halted = false;
    std::uint64_t imageDigest = 0;
    std::string key;
    std::uint64_t fileBytes = 0;    ///< total file size
    std::uint64_t payloadBytes = 0; ///< stored column bytes only
};

/**
 * Atomically write @p trace to @p path, stamped with @p key (the
 * cache key string) and @p image_digest (prog::Program::imageDigest()
 * of the program it was captured from).
 * @return false with @p error set on any I/O failure; the final path
 * is never left half-written.
 */
bool saveTraceFile(const std::string &path, const InstTrace &trace,
                   const std::string &key, std::uint64_t image_digest,
                   std::string &error);

/**
 * mmap @p path and rebuild its InstTrace, validating magic, version,
 * endianness, flags, total size, payload checksum, and — unless
 * @p expect_key is empty — that the stored key and image digest match
 * @p expect_key / @p expect_digest exactly.
 *
 * @return the trace, or nullptr with @p error describing the first
 * check that failed (callers fall back to a fresh capture). On
 * success @p info, when non-null, receives the header summary.
 */
std::shared_ptr<const InstTrace>
loadTraceFile(const std::string &path, const std::string &expect_key,
              std::uint64_t expect_digest, std::string &error,
              TraceFileInfo *info = nullptr);

/** Read and validate only the header (no payload checksum scan).
 *  @return false with @p error set when the file is unreadable or
 *  structurally invalid. */
bool probeTraceFile(const std::string &path, TraceFileInfo &info,
                    std::string &error);

} // namespace func
} // namespace dscalar

#endif // DSCALAR_FUNC_TRACE_FILE_HH
