// Compile-fail fixture for the discarded_status_does_not_compile ctest.
// Status is a [[nodiscard]] class (src/util/status.h) and the root
// CMakeLists.txt turns -Wunused-result into an error, so discarding a Status
// through a call chain must not build. Excluded from the default build.
#include "src/util/status.h"

namespace pandia {
namespace {

struct Store {
  Status Save() { return Status::Ok(); }
};

Store Wrap() { return Store{}; }

}  // namespace

void DiscardThroughACallChain() { Wrap().Save(); }

}  // namespace pandia
