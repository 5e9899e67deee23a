// Fixture: names that merely resemble thread or process creation are
// fine — members called fork, qualified members, identifiers that
// contain "thread", and mentions in comments ("std::thread") or strings.
namespace disttrack {

struct Tree {
  int fork(int depth) const { return depth + 1; }
  static int spawn_count;
};

struct Pool {
  static int fork(int n) { return n * 2; }
};

int Branch(const Tree& tree, const Tree* other, int thread_count) {
  const char* label = "fork() and std::thread";
  (void)label;
  return tree.fork(thread_count) + other->fork(1) + Pool::fork(2);
}

}  // namespace disttrack
