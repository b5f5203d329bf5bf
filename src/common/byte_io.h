// Fixed-width little-endian stores and loads for the plan and wire codecs
// (src/core/plan_io.cc, src/net/wire.cc, src/net/frame.cc).
//
// Both formats are defined byte-wise as little-endian with no padding. On a
// little-endian host that is exactly the in-memory representation of the
// fixed-width integer and IEEE-754 types, so a field is one memcpy and a
// homogeneous section (rank arena, token layout, thresholds, sequence
// lengths) is one bulk copy. The encoders size their buffer once and write
// through a ByteWriter; the decoders bounds-check against the remaining
// payload through a ByteReader before every load.
#ifndef SRC_COMMON_BYTE_IO_H_
#define SRC_COMMON_BYTE_IO_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace zeppelin {

// The codecs store host integers verbatim. A big-endian port would need a
// byte swap on every field and section; there is deliberately one code path,
// so such a host fails here rather than emitting a different wire image.
static_assert(std::endian::native == std::endian::little,
              "the plan/wire codecs require a little-endian host");

// Writes fixed-width values into a buffer the caller has already sized. The
// caller computes the exact encoded size up front; the writer only advances.
class ByteWriter {
 public:
  explicit ByteWriter(char* out) : p_(out) {}

  template <typename T>
  void Put(T value) {
    static_assert(std::is_arithmetic_v<T>);
    std::memcpy(p_, &value, sizeof(T));
    p_ += sizeof(T);
  }

  void PutBytes(const void* data, size_t size) {
    if (size > 0) {
      std::memcpy(p_, data, size);
      p_ += size;
    }
  }

  // One bulk copy of `count` fixed-width elements.
  template <typename T>
  void PutArray(const T* data, size_t count) {
    static_assert(std::is_arithmetic_v<T>);
    PutBytes(data, count * sizeof(T));
  }

  char* pos() const { return p_; }

 private:
  char* p_;
};

// Cursor over an untrusted payload. Have(n) must be checked before loading
// n bytes; the loads themselves do not re-check, so one Have() covers a
// whole fixed-width block.
struct ByteReader {
  const char* data;
  size_t size;
  size_t pos = 0;

  bool Have(size_t n) const { return size - pos >= n; }

  template <typename T>
  T Get() {
    static_assert(std::is_arithmetic_v<T>);
    T value;
    std::memcpy(&value, data + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }

  // One bulk copy of `count` fixed-width elements into `out`.
  template <typename T>
  void GetArray(T* out, size_t count) {
    static_assert(std::is_arithmetic_v<T>);
    if (count > 0) {
      std::memcpy(out, data + pos, count * sizeof(T));
      pos += count * sizeof(T);
    }
  }

  const char* cursor() const { return data + pos; }
};

}  // namespace zeppelin

#endif  // SRC_COMMON_BYTE_IO_H_
