// Fixture: a library file that starts a thread must produce no-threads.
#include <thread>

namespace disttrack {

void Background(void (*work)()) {
  std::thread worker(work);  // finding
  worker.detach();
}

}  // namespace disttrack
