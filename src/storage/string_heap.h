#ifndef MOAFLAT_STORAGE_STRING_HEAP_H_
#define MOAFLAT_STORAGE_STRING_HEAP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/page_accountant.h"

namespace moaflat::storage {

/// Variable-size value heap per Fig. 2 of the paper: BUNs of string columns
/// hold integer byte-indices into a separate tail heap. Identical strings
/// are stored once (the dedup map is build-time only and not counted as
/// storage).
class StringHeap {
 public:
  StringHeap() : heap_id_(NewHeapId()) {}

  /// Rebuilds a heap from its raw byte image (checkpoint recovery): the
  /// layout — and therefore every previously handed-out offset — is
  /// preserved verbatim; the dedup map is reconstructed by scanning the
  /// NUL-terminated entries so later Intern calls keep deduplicating.
  static std::shared_ptr<StringHeap> FromBytes(std::vector<char> bytes);

  /// Appends `s` (or finds an existing copy) and returns its byte offset.
  int32_t Intern(std::string_view s);

  /// Reads the string stored at `offset`. The returned view is valid until
  /// the next Intern call.
  std::string_view View(int32_t offset) const {
    const char* base = bytes_.data() + offset;
    return std::string_view(base);  // entries are NUL-terminated
  }

  uint64_t heap_id() const { return heap_id_; }
  size_t byte_size() const { return bytes_.size(); }

  /// The raw heap image (checkpoint serialization).
  const std::vector<char>& bytes() const { return bytes_; }

 private:
  uint64_t heap_id_;
  std::vector<char> bytes_;
  std::unordered_map<std::string, int32_t> dedup_;
};

}  // namespace moaflat::storage

#endif  // MOAFLAT_STORAGE_STRING_HEAP_H_
