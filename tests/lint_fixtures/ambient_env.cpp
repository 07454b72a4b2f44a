// Fixture: the ambient-env rule. Library behavior is switched by config
// fields only; reading the process environment hides a switch from the
// config a run reports and replays. Tools map their environment onto
// config fields, and only such reads are suppressed.
#include <cstdlib>

bool audit_requested() {
  return std::getenv("AUDIT") != nullptr;  // lint:expect(ambient-env)
}

bool secure_audit_requested() {
  return secure_getenv("AUDIT") != nullptr;  // lint:expect(ambient-env)
}

// Writing the environment is not a read: a harness that sets a variable
// for a child component is not flagged.
void arm_child_stats() {
  setenv("STATS", "1", 1);
  unsetenv("STATS");
}

// Honored suppression: a tool maps its environment onto a config field.
bool cli_audit_flag() {
  // lint:allow(ambient-env): the CLI maps the variable onto a config field
  const char* v = std::getenv("AUDIT");
  return v != nullptr && v[0] == '1';
}
