#ifndef X3_UTIL_COMPRESS_H_
#define X3_UTIL_COMPRESS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.h"
#include "util/status.h"

namespace x3 {

/// An LZ4-class byte-oriented block codec, implemented in-repo (the
/// toolchain image carries no compression library). Greedy hash-table
/// match finder over a 64 KB offset window, token format close to LZ4's
/// sequence encoding:
///
///   sequence := token | literal-len-ext* | literals
///               | offset(2, LE) | match-len-ext*
///   token    := (literal_len : 4 bits high) (match_len - 4 : 4 bits low)
///
/// A 4-bit length field of 15 is followed by extension bytes (each
/// adding 0..255, terminated by a byte < 255). The final sequence of a
/// block carries literals only (offset omitted, match nibble 0). Blocks
/// are self-terminating: decompression consumes exactly `src_size`
/// bytes and fails with Corruption on truncated or malformed input
/// instead of reading past either buffer.
///
/// The codec is deliberately frame-less: its caller (the spill-run
/// blocks of ExternalSorter) adds its own raw-size framing around it.

/// Worst-case compressed size of a `raw_size` block (all-literal
/// encoding plus extension bytes). Compressing into a buffer of this
/// capacity never fails.
constexpr size_t MaxCompressedSize(size_t raw_size) {
  return raw_size + raw_size / 255 + 16;
}

/// Compresses `src[0, src_size)` into `dst[0, dst_capacity)`. Returns
/// the compressed size, or 0 when the encoded block would not fit in
/// `dst_capacity` (callers that must not fail pass
/// MaxCompressedSize(src_size); callers that store raw on expansion
/// pass a tighter capacity and fall back on 0). A zero-length input
/// compresses to an empty block of size 0 as well — disambiguate with
/// src_size == 0 when that matters.
size_t CompressBlock(const uint8_t* src, size_t src_size, uint8_t* dst,
                     size_t dst_capacity);

/// Decompresses a block produced by CompressBlock, consuming exactly
/// `src[0, src_size)`. Returns the decompressed size (<= dst_capacity)
/// or Corruption on malformed input: truncated sequences, offsets past
/// the start of output, or output exceeding `dst_capacity`. Never reads
/// or writes out of bounds on any input.
Result<size_t> DecompressBlock(const uint8_t* src, size_t src_size,
                               uint8_t* dst, size_t dst_capacity);

/// String conveniences for callers that frame with length prefixes.
void CompressString(std::string_view raw, std::string* out);
Result<std::string> DecompressString(std::string_view block,
                                     size_t raw_size);

}  // namespace x3

#endif  // X3_UTIL_COMPRESS_H_
