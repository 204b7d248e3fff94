// Compile-only fixture for the status_nodiscard_enforced ctest: it is never
// linked into a test binary. Each statement in DiscardEachKind() drops a
// result that `class [[nodiscard]] Status` / `class [[nodiscard]] StatusOr`
// make the compiler reject under -Werror=unused-result. The ctest passes only
// when all three discards are diagnosed.

#include "common/status.h"

namespace {

crayfish::Status Flush() { return crayfish::Status::Ok(); }

crayfish::StatusOr<int> Count() { return 1; }

struct Topic {
  crayfish::Status Create() { return crayfish::Status::Ok(); }
};

}  // namespace

void DiscardEachKind() {
  Flush();         // free function returning Status
  Count();         // StatusOr<int>
  Topic topic;
  topic.Create();  // member call returning Status
}
