// Unit test of the serve-output checker: correct replies under the window
// contract pass, and each kind of wrong reply is caught. Exits non-zero on
// the first failed expectation.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checker.hpp"
#include "common/status.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "checker_test: FAILED: %s\n", what);
    ++failures;
  }
}

OpRecord op(u32 seq, u8 kind, Key key, u64 value = 0, u8 found = 0) {
  OpRecord r;
  r.seq = seq;
  r.kind = kind;
  r.key = key;
  r.value = value;
  r.found = found;
  return r;
}

}  // namespace

int main() {
  const std::vector<std::pair<Key, Value>> initial = {{10, 100}, {20, 200}, {30, 300}};
  WindowBatches b;

  {
    // Writes run before reads; a duplicate upsert keeps its first value;
    // an erase of a key upserted in the same window finds it.
    ReplayChecker c(initial);
    const std::vector<OpRecord> w = {
        op(1, kUpsert, 15, 150), op(1, kUpsert, 15, 999), op(1, kErase, 20, 0, 1),
        op(1, kErase, 20, 0, 1), op(1, kGet, 15, 150, 1), op(1, kGet, 20, 0, 0),
        op(1, kSuccessor, 16, 30, 1), op(1, kSuccessor, 31, 0, 0),
        op(1, kUpsert, 40, 400), op(1, kErase, 40, 0, 1)};
    expect(c.apply(w, b) == 0, "a correct window passes");
    expect(b.upsert_kvs.size() == 2 && b.upsert_kvs[0] == std::pair<Key, Value>{15, 150},
           "unique upserts keep the first occurrence, sorted");
    expect(b.del_keys == std::vector<Key>({20, 40}) && b.del_found == std::vector<u8>({1, 1}),
           "deletes are unique, sorted, flagged after the upserts");
    expect(b.get_keys == std::vector<Key>({15, 20}) && b.succ_keys == std::vector<Key>({16, 31}),
           "reads are unique and sorted");
    expect(c.state().count(40) == 0 && c.state().at(15) == 150, "model state after the window");
    // The next window observes the previous one.
    expect(c.apply(std::vector<OpRecord>{op(2, kGet, 15, 150, 1), op(2, kGet, 40)}, b) == 0,
           "a later window observes earlier writes");
  }
  {
    ReplayChecker c(initial);
    expect(c.apply(std::vector<OpRecord>{op(1, kGet, 10, 101, 1)}, b) == 1, "wrong value caught");
    expect(!c.first_error().empty(), "the first mismatch is described");
  }
  {
    ReplayChecker c(initial);
    expect(c.apply(std::vector<OpRecord>{op(1, kSuccessor, 11, 30, 1)}, b) == 1,
           "wrong successor caught");
    expect(c.apply(std::vector<OpRecord>{op(1, kErase, 11, 0, 1)}, b) == 1,
           "wrong erase flag caught");
    expect(c.apply(std::vector<OpRecord>{op(1, kGet, 12, 0, 1)}, b) == 1, "phantom key caught");
  }
  {
    // A failed write is not applied.
    ReplayChecker c(initial);
    OpRecord w = op(1, kUpsert, 50, 500);
    w.status = static_cast<u8>(pim::StatusCode::kNoQuorum);
    expect(c.apply(std::vector<OpRecord>{w, op(1, kGet, 50)}, b) == 0 && c.state().count(50) == 0,
           "failed writes are not applied");
  }

  if (failures == 0) std::printf("checker_test: OK\n");
  return failures == 0 ? 0 : 1;
}
