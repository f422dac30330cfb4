// Process-wide memo of verify() references.
//
// Every suite code checks its result against an independent sequential
// reference that depends only on a few SuiteConfig fields (plus the thread
// count for Sparse, whose reference replays the partitioned reduction
// order).  A sweep measures the same problem at many thread counts, so the
// reference is computed once per distinct key and shared by every later
// verify() in the process.  Each code declares its own key struct naming
// exactly the fields its reference reads, with a kProgram tag; the key type
// selects the memo, so codes never share one.
//
// Entries live for the process lifetime: the memo is bounded by the number
// of distinct configurations measured (DESIGN.md §9).  Concurrent callers
// with the same key wait on one computation (util::OnceCell).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>

#include "util/once_cell.hpp"

namespace xp::suite {

namespace detail {
/// Counts one reference build for `program` (reference_builds() reads it).
void note_reference_build(const std::string& program);

template <typename Key, typename T>
class ReferenceMemo {
 public:
  static ReferenceMemo& instance() {
    static ReferenceMemo memo;
    return memo;
  }

  template <typename Build>
  std::shared_ptr<const T> get(const Key& key, Build&& build) {
    util::OnceCell<std::shared_ptr<const T>>* cell;
    {
      std::lock_guard<std::mutex> lock(mu_);
      cell = &cells_.try_emplace(key).first->second;  // map nodes are stable
    }
    return cell->get_or_init([&] {
      auto ref = std::make_shared<const T>(std::forward<Build>(build)(key));
      note_reference_build(Key::kProgram);
      return ref;
    });
  }

 private:
  std::mutex mu_;
  std::map<Key, util::OnceCell<std::shared_ptr<const T>>> cells_;
};
}  // namespace detail

/// The reference for `key`, computed as `build(key)` on its first use in
/// the process.  `build` must be a pure function of `key`: it sees nothing
/// else, and every later caller with an equal key shares its result.
template <typename Key, typename Build,
          typename T = std::invoke_result_t<Build, const Key&>>
std::shared_ptr<const T> shared_reference(const Key& key, Build&& build) {
  return detail::ReferenceMemo<Key, T>::instance().get(
      key, std::forward<Build>(build));
}

}  // namespace xp::suite
