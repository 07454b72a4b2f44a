#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace llamcat::lint {

namespace {

// ---------------------------------------------------------------------------
// Rule catalog. Stable ids: docs/static-analysis.md and the fixture corpus
// name these verbatim, and tools/check_doc_links.sh greps this table (keep
// one `{"rule-id",` per line).
// ---------------------------------------------------------------------------
const std::vector<Rule>& rule_table() {
  static const std::vector<Rule> kRules = {
      {"unordered-iteration",
       "iterating an unordered_{map,set} feeds hash-table order into "
       "downstream state; sort the keys first or suppress with the reason "
       "the loop is order-insensitive"},
      {"pointer-keyed-container",
       "a map/set keyed by a pointer orders (or hashes) by address, which "
       "changes run to run under ASLR; key by a stable id instead"},
      {"ambient-rng",
       "rand()/srand()/std::random_device draw from ambient process state; "
       "use the seeded deterministic generators in common/rng.hpp"},
      {"wallclock",
       "wall-clock reads (std::chrono ...::now(), time(), clock()) are "
       "nondeterministic; simulation time must come from the simulated "
       "clock (bench wall-clock measurement suppresses with a reason)"},
      {"ambient-env",
       "getenv()/secure_getenv() make behavior depend on the process "
       "environment; switches are config fields, which tools fill from "
       "their flags or environment (tools suppress with a reason)"},
      {"float-accumulation",
       "float/double accumulation inside an unordered-container loop makes "
       "the rounding depend on hash order even when the element set is "
       "fixed; accumulate into integers or sort first"},
      {"config-validate",
       "every *Config struct must declare validate() so misconfiguration "
       "fails loudly at construction instead of corrupting a run"},
      {"raw-mutex",
       "simulation code shares no mutable state across threads (each "
       "parallel_map call owns its slot); a lock means shared state, so "
       "restructure instead of locking"},
      {"allow-without-reason",
       "a lint:allow(...) suppression must carry ': <reason>' text; an "
       "unexplained suppression is indistinguishable from a silenced bug"},
      {"unknown-rule",
       "a lint directive names a rule id that does not exist (typo or a "
       "rule that was removed); fix or delete the directive"},
      {"unused-suppression",
       "a lint:allow(...) that suppresses nothing on its line; delete it "
       "so the suppression inventory stays honest"},
  };
  return kRules;
}

// Meta rules police the directives themselves: their allows are exempt from
// the unused-suppression check (a meta allow's target is another directive,
// not code).
bool is_meta_rule(std::string_view r) {
  return r == "allow-without-reason" || r == "unknown-rule" ||
         r == "unused-suppression";
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------
enum class TokKind { kIdent, kNumber, kPunct };

struct Tok {
  TokKind kind;
  std::string text;
  int line = 0;
};

struct Directive {
  enum class Kind { kAllow, kExpect };
  Kind kind;
  int line = 0;
  std::vector<std::string> rule_names;
  bool has_reason = false;
};

struct Lexed {
  std::vector<Tok> toks;
  std::vector<Directive> directives;
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Parses every allow/expect directive occurrence inside one comment's text.
void parse_directives(std::string_view comment, int line,
                      std::vector<Directive>& out) {
  std::size_t pos = 0;
  while ((pos = comment.find("lint:", pos)) != std::string_view::npos) {
    std::size_t p = pos + 5;
    Directive d;
    d.line = line;
    if (comment.compare(p, 6, "allow(") == 0) {
      d.kind = Directive::Kind::kAllow;
      p += 6;
    } else if (comment.compare(p, 7, "expect(") == 0) {
      d.kind = Directive::Kind::kExpect;
      p += 7;
    } else {
      pos = p;
      continue;
    }
    const std::size_t close = comment.find(')', p);
    if (close == std::string_view::npos) {
      pos = p;
      continue;
    }
    // Split the rule list on commas, trimming whitespace.
    std::string name;
    for (std::size_t i = p; i <= close; ++i) {
      const char c = i < close ? comment[i] : ',';
      if (c == ',') {
        while (!name.empty() && name.back() == ' ') name.pop_back();
        if (!name.empty()) d.rule_names.push_back(name);
        name.clear();
      } else if (c != ' ' || !name.empty()) {
        name += c;
      }
    }
    // A reason is ": <non-empty text>" after the closing paren.
    std::size_t r = close + 1;
    while (r < comment.size() && comment[r] == ' ') ++r;
    if (r < comment.size() && comment[r] == ':') {
      ++r;
      while (r < comment.size() && comment[r] == ' ') ++r;
      d.has_reason = r < comment.size();
    }
    out.push_back(std::move(d));
    pos = close;
  }
}

// Tokenizes C++ source: comments become directives, string/char literals
// and preprocessor lines vanish, everything else becomes Ident/Number/Punct
// tokens with line numbers. Multi-char operators that the analyses care
// about (::, ->, compound assigns, ++/--) are fused; << and >> stay as two
// tokens so template-argument depth counting stays trivial.
Lexed lex(std::string_view src) {
  Lexed out;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  bool at_line_start = true;

  auto newline = [&] {
    ++line;
    at_line_start = true;
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      newline();
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    // Preprocessor directive: skip to end of line, honoring continuations.
    if (at_line_start && c == '#') {
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          newline();
          i += 2;
          continue;
        }
        if (src[i] == '\n') break;
        ++i;
      }
      continue;
    }
    at_line_start = false;
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t start = i + 2;
      std::size_t end = src.find('\n', start);
      if (end == std::string_view::npos) end = n;
      parse_directives(src.substr(start, end - start), line, out.directives);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start_line = line;
      std::size_t j = i + 2;
      std::string text;
      while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) {
        if (src[j] == '\n') ++line;
        text += src[j];
        ++j;
      }
      parse_directives(text, start_line, out.directives);
      i = j + 2 <= n ? j + 2 : n;
      continue;
    }
    // Raw string literal.
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(') delim += src[j++];
      const std::string closer = ")" + delim + "\"";
      std::size_t end = src.find(closer, j);
      if (end == std::string_view::npos) end = n;
      for (std::size_t k = i; k < end && k < n; ++k) {
        if (src[k] == '\n') ++line;
      }
      i = std::min(n, end + closer.size());
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      std::size_t j = i + 1;
      while (j < n && src[j] != c) {
        if (src[j] == '\\') ++j;
        if (src[j] == '\n') ++line;  // unterminated; keep line count sane
        ++j;
      }
      i = j + 1;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(src[j])) ++j;
      out.toks.push_back({TokKind::kIdent, std::string(src.substr(i, j - i)),
                          line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i + 1;
      // A '\'' between digit characters is a C++14 digit separator
      // (20'000), not a char-literal open - swallowing one as a literal
      // would blind every rule until the next stray apostrophe.
      while (j < n && (ident_char(src[j]) || src[j] == '.' ||
                       (src[j] == '\'' && j + 1 < n &&
                        ident_char(src[j + 1])) ||
                       ((src[j] == '+' || src[j] == '-') &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E')))) {
        ++j;
      }
      out.toks.push_back({TokKind::kNumber, std::string(src.substr(i, j - i)),
                          line});
      i = j;
      continue;
    }
    // Punctuation: fuse the operators the analyses match on.
    static constexpr std::string_view kTwoChar[] = {
        "::", "->", "+=", "-=", "*=", "/=", "%=", "&=",
        "|=", "^=", "==", "!=", "<=", ">=", "&&", "||", "++", "--"};
    std::string p(1, c);
    if (i + 1 < n) {
      const std::string_view two = src.substr(i, 2);
      for (const std::string_view cand : kTwoChar) {
        if (two == cand) {
          p = std::string(two);
          break;
        }
      }
    }
    out.toks.push_back({TokKind::kPunct, p, line});
    i += p.size();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Symbol table: names declared with unordered-container types and names
// declared float/double, collected from the context (companion header) and
// the file itself.
// ---------------------------------------------------------------------------
struct Symbols {
  std::unordered_set<std::string> unordered_vars;
  std::unordered_set<std::string> unordered_aliases;  // using X = unordered_*
  std::unordered_set<std::string> float_vars;
};

bool is_unordered_container(const std::string& t) {
  return t == "unordered_map" || t == "unordered_set" ||
         t == "unordered_multimap" || t == "unordered_multiset";
}

bool is_assoc_container(const std::string& t) {
  return t == "map" || t == "set" || t == "multimap" || t == "multiset" ||
         is_unordered_container(t);
}

// Returns the index just past a balanced <...> starting at `toks[i]` == "<",
// or `i` if the template args never close.
std::size_t skip_template_args(const std::vector<Tok>& toks, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (toks[j].kind != TokKind::kPunct) continue;
    if (toks[j].text == "<") ++depth;
    if (toks[j].text == ">") {
      if (--depth == 0) return j + 1;
    }
    // A ; at depth > 0 means we mis-parsed (comparison, not template args).
    if (toks[j].text == ";") return i;
  }
  return i;
}

void collect_symbols(const std::vector<Tok>& toks, Symbols& sym) {
  const std::size_t n = toks.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Tok& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;

    // using Alias = ... unordered_map< ... ;
    if (t.text == "using" && i + 2 < n && toks[i + 1].kind == TokKind::kIdent &&
        toks[i + 2].kind == TokKind::kPunct && toks[i + 2].text == "=") {
      for (std::size_t j = i + 3; j < n; ++j) {
        if (toks[j].kind == TokKind::kPunct && toks[j].text == ";") break;
        if (toks[j].kind == TokKind::kIdent &&
            (is_unordered_container(toks[j].text) ||
             sym.unordered_aliases.count(toks[j].text) != 0)) {
          sym.unordered_aliases.insert(toks[i + 1].text);
          break;
        }
      }
      continue;
    }

    // unordered_map<...> [*&const]* name   (members, locals, params)
    const bool unordered_type = is_unordered_container(t.text) ||
                                sym.unordered_aliases.count(t.text) != 0;
    if (unordered_type) {
      std::size_t j = i + 1;
      if (j < n && toks[j].kind == TokKind::kPunct && toks[j].text == "<") {
        j = skip_template_args(toks, j);
        if (j == i + 1) continue;  // unbalanced; bail on this site
      }
      while (j < n && ((toks[j].kind == TokKind::kPunct &&
                        (toks[j].text == "*" || toks[j].text == "&")) ||
                       (toks[j].kind == TokKind::kIdent &&
                        toks[j].text == "const"))) {
        ++j;
      }
      if (j < n && toks[j].kind == TokKind::kIdent &&
          toks[j].text != "const") {
        sym.unordered_vars.insert(toks[j].text);
      }
      continue;
    }

    // float/double name  (skip template args `<double>` and declarations of
    // functions returning float: the next-next token would be `(`).
    if (t.text == "float" || t.text == "double") {
      const bool in_template_args =
          i > 0 && toks[i - 1].kind == TokKind::kPunct &&
          (toks[i - 1].text == "<" || toks[i - 1].text == ",");
      if (in_template_args) continue;
      if (i + 1 < n && toks[i + 1].kind == TokKind::kIdent) {
        const bool is_function = i + 2 < n &&
                                 toks[i + 2].kind == TokKind::kPunct &&
                                 toks[i + 2].text == "(";
        if (!is_function) sym.float_vars.insert(toks[i + 1].text);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------
struct Finding {
  int line;
  std::string rule;
  std::string message;
};

class Analyzer {
 public:
  Analyzer(const std::vector<Tok>& toks, const Symbols& sym)
      : toks_(toks), sym_(sym) {}

  std::vector<Finding> run() {
    scan_range_for_loops();
    scan_iterator_calls();
    scan_pointer_keys();
    scan_ambient_rng();
    scan_wallclock();
    scan_ambient_env();
    scan_config_structs();
    scan_raw_mutex();
    return std::move(findings_);
  }

 private:
  const std::vector<Tok>& toks_;
  const Symbols& sym_;
  std::vector<Finding> findings_;

  bool punct(std::size_t i, std::string_view p) const {
    return i < toks_.size() && toks_[i].kind == TokKind::kPunct &&
           toks_[i].text == p;
  }
  bool ident(std::size_t i) const {
    return i < toks_.size() && toks_[i].kind == TokKind::kIdent;
  }

  void add(int line, std::string_view rule, std::string message) {
    findings_.push_back({line, std::string(rule), std::move(message)});
  }

  // Index just past a balanced (...) starting at toks_[i] == "(".
  std::size_t skip_parens(std::size_t i) const {
    int depth = 0;
    for (std::size_t j = i; j < toks_.size(); ++j) {
      if (punct(j, "(")) ++depth;
      if (punct(j, ")") && --depth == 0) return j + 1;
    }
    return toks_.size();
  }

  // [begin, end) token span of the statement or block following index i
  // (used for loop bodies).
  std::pair<std::size_t, std::size_t> body_span(std::size_t i) const {
    if (punct(i, "{")) {
      int depth = 0;
      for (std::size_t j = i; j < toks_.size(); ++j) {
        if (punct(j, "{")) ++depth;
        if (punct(j, "}") && --depth == 0) return {i + 1, j};
      }
      return {i + 1, toks_.size()};
    }
    for (std::size_t j = i; j < toks_.size(); ++j) {
      if (punct(j, ";")) return {i, j};
    }
    return {i, toks_.size()};
  }

  // unordered-iteration (range-for form) + float-accumulation inside the
  // loop body.
  void scan_range_for_loops() {
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (!(ident(i) && toks_[i].text == "for" && punct(i + 1, "("))) continue;
      const std::size_t close = skip_parens(i + 1) - 1;
      // Find the range-for ':' at paren depth 1 (:: is a distinct token).
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (punct(j, "(")) ++depth;
        if (punct(j, ")")) --depth;
        if (depth == 1 && punct(j, ":")) {
          colon = j;
          break;
        }
      }
      if (colon == 0) continue;
      // Identifiers at nesting depth 0 of the range expression; names inside
      // nested parens are call arguments (e.g. sorted_keys(m)) - the copy
      // the call returns is the fix, so they are exempt.
      bool unordered = false;
      int expr_depth = 0;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (punct(j, "(")) ++expr_depth;
        if (punct(j, ")")) --expr_depth;
        if (expr_depth == 0 && ident(j) && !punct(j + 1, "(") &&
            sym_.unordered_vars.count(toks_[j].text) != 0) {
          unordered = true;
          break;
        }
      }
      if (!unordered) continue;
      add(toks_[i].line, "unordered-iteration",
          "range-for over unordered container; iteration order is "
          "hash/ASLR-dependent");
      // float-accumulation: compound add/sub on a float/double-declared
      // name anywhere in this loop's body.
      const auto [b, e] = body_span(close + 1);
      for (std::size_t j = b; j < e; ++j) {
        if (toks_[j].kind == TokKind::kPunct &&
            (toks_[j].text == "+=" || toks_[j].text == "-=") && j > 0 &&
            ident(j - 1) && sym_.float_vars.count(toks_[j - 1].text) != 0) {
          add(toks_[j].line, "float-accumulation",
              "float/double accumulated across unordered iteration; "
              "rounding depends on hash order");
        }
      }
    }
  }

  // unordered-iteration (explicit iterator form): m.begin() / m.cbegin().
  void scan_iterator_calls() {
    for (std::size_t i = 0; i + 3 < toks_.size(); ++i) {
      if (!(ident(i) && sym_.unordered_vars.count(toks_[i].text) != 0)) {
        continue;
      }
      if (!(punct(i + 1, ".") || punct(i + 1, "->"))) continue;
      if (!ident(i + 2)) continue;
      const std::string& m = toks_[i + 2].text;
      if ((m == "begin" || m == "cbegin" || m == "rbegin") &&
          punct(i + 3, "(")) {
        add(toks_[i].line, "unordered-iteration",
            "iterator over unordered container; iteration order is "
            "hash/ASLR-dependent");
      }
    }
  }

  // pointer-keyed-container: map/set<...> whose first template argument is
  // a pointer type.
  void scan_pointer_keys() {
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (!(ident(i) && is_assoc_container(toks_[i].text) &&
            punct(i + 1, "<"))) {
        continue;
      }
      // First template argument: tokens until a ',' or the closing '>' at
      // depth 1.
      int depth = 0;
      std::size_t last_meaningful = 0;
      bool done = false;
      for (std::size_t j = i + 1; j < toks_.size() && !done; ++j) {
        if (toks_[j].kind == TokKind::kPunct) {
          if (toks_[j].text == "<") {
            ++depth;
            continue;
          }
          if (toks_[j].text == ">" && --depth == 0) done = true;
          if (toks_[j].text == "," && depth == 1) done = true;
          if (toks_[j].text == ";") break;  // mis-parse (comparison)
        }
        if (!done) last_meaningful = j;
      }
      if (last_meaningful != 0 && punct(last_meaningful, "*")) {
        add(toks_[i].line, "pointer-keyed-container",
            "associative container keyed by a pointer; ordering/hash "
            "follows the allocator, not the data");
      }
    }
  }

  void scan_ambient_rng() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (!ident(i)) continue;
      const std::string& t = toks_[i].text;
      const bool member = i > 0 && (punct(i - 1, ".") || punct(i - 1, "->"));
      if (member) continue;
      if (t == "random_device") {
        add(toks_[i].line, "ambient-rng",
            "std::random_device draws entropy from the environment");
        continue;
      }
      if ((t == "rand" || t == "srand" || t == "rand_r" || t == "drand48" ||
           t == "random_shuffle") &&
          punct(i + 1, "(")) {
        add(toks_[i].line, "ambient-rng",
            t + "() draws from ambient process-global state");
      }
    }
  }

  void scan_wallclock() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (!ident(i)) continue;
      const std::string& t = toks_[i].text;
      // <clock>::now() - the argless overloads read the host clock.
      if (t == "now" && i > 0 && punct(i - 1, "::") && punct(i + 1, "(") &&
          punct(i + 2, ")")) {
        add(toks_[i].line, "wallclock", "clock ::now() reads the host clock");
        continue;
      }
      const bool member = i > 0 && (punct(i - 1, ".") || punct(i - 1, "->"));
      if (member) continue;
      if ((t == "time" || t == "clock" || t == "gettimeofday" ||
           t == "clock_gettime" || t == "localtime" || t == "gmtime" ||
           t == "mktime") &&
          punct(i + 1, "(")) {
        add(toks_[i].line, "wallclock", t + "() reads the host clock");
      }
    }
  }

  // ambient-env: reads only. setenv/unsetenv change the environment a
  // read would see and are not flagged themselves.
  void scan_ambient_env() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (!ident(i)) continue;
      const std::string& t = toks_[i].text;
      const bool member = i > 0 && (punct(i - 1, ".") || punct(i - 1, "->"));
      if (member) continue;
      if ((t == "getenv" || t == "secure_getenv") && punct(i + 1, "(")) {
        add(toks_[i].line, "ambient-env",
            t + "() reads the process environment");
      }
    }
  }

  // config-validate: struct/class *Config must declare validate(.
  void scan_config_structs() {
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (!(ident(i) &&
            (toks_[i].text == "struct" || toks_[i].text == "class"))) {
        continue;
      }
      if (!ident(i + 1)) continue;
      const std::string& name = toks_[i + 1].text;
      if (name.size() < 7 || name.compare(name.size() - 6, 6, "Config") != 0) {
        continue;
      }
      // Skip to the body; a ';' first means forward declaration.
      std::size_t j = i + 2;
      while (j < toks_.size() && !punct(j, "{") && !punct(j, ";")) ++j;
      if (j >= toks_.size() || punct(j, ";")) continue;
      int depth = 0;
      bool has_validate = false;
      for (std::size_t k = j; k < toks_.size(); ++k) {
        if (punct(k, "{")) ++depth;
        if (punct(k, "}") && --depth == 0) break;
        if (ident(k) && toks_[k].text == "validate" && punct(k + 1, "(")) {
          has_validate = true;
        }
      }
      if (!has_validate) {
        add(toks_[i].line, "config-validate",
            name + " declares no validate(); configs must fail loudly on "
                   "bad values");
      }
    }
  }

  void scan_raw_mutex() {
    for (std::size_t i = 0; i + 2 < toks_.size(); ++i) {
      if (!(ident(i) && toks_[i].text == "std" && punct(i + 1, "::") &&
            ident(i + 2))) {
        continue;
      }
      const std::string& t = toks_[i + 2].text;
      if (t == "mutex" || t == "timed_mutex" || t == "recursive_mutex" ||
          t == "shared_mutex" || t == "condition_variable" ||
          t == "condition_variable_any" || t == "lock_guard" ||
          t == "unique_lock" || t == "scoped_lock" || t == "shared_lock") {
        add(toks_[i].line, "raw-mutex",
            "std::" + t + " implies state shared across threads; give each "
                          "parallel_map call its own slot instead");
      }
    }
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

const std::vector<Rule>& rules() { return rule_table(); }

bool is_rule(std::string_view name) {
  const auto& rs = rule_table();
  return std::any_of(rs.begin(), rs.end(),
                     [&](const Rule& r) { return r.name == name; });
}

FileReport lint_source(std::string_view file, std::string_view content,
                       std::string_view context) {
  FileReport report;
  Symbols sym;
  if (!context.empty()) {
    const Lexed ctx = lex(context);
    collect_symbols(ctx.toks, sym);
  }
  const Lexed lx = lex(content);
  collect_symbols(lx.toks, sym);

  std::vector<Finding> findings = Analyzer(lx.toks, sym).run();

  // Directive-level findings and the suppression index.
  // allows[line] -> (rule -> directive index); only reasoned allows count.
  std::unordered_map<int, std::unordered_map<std::string, std::size_t>>
      allows;
  std::vector<bool> allow_used(lx.directives.size(), false);
  for (std::size_t di = 0; di < lx.directives.size(); ++di) {
    const Directive& d = lx.directives[di];
    for (const std::string& r : d.rule_names) {
      if (!is_rule(r)) {
        findings.push_back(
            {d.line, "unknown-rule",
             "directive names unknown rule '" + r + "'; see --list-rules"});
      }
    }
    if (d.kind == Directive::Kind::kExpect) {
      for (const std::string& r : d.rule_names) {
        if (is_rule(r)) report.expectations.push_back({d.line, r});
      }
      continue;
    }
    if (!d.has_reason) {
      findings.push_back({d.line, "allow-without-reason",
                          "lint:allow without ': <reason>' text"});
      continue;  // a reasonless allow suppresses nothing
    }
    for (const std::string& r : d.rule_names) {
      if (is_rule(r)) allows[d.line].emplace(r, di);
    }
  }

  // Apply suppressions: an allow on the violation's line or the line above.
  auto find_allow = [&](const Finding& f) -> std::size_t {
    for (const int l : {f.line, f.line - 1}) {
      auto it = allows.find(l);
      if (it == allows.end()) continue;
      auto jt = it->second.find(f.rule);
      if (jt != it->second.end()) return jt->second;
    }
    return lx.directives.size();
  };
  std::vector<Finding> active;
  for (Finding& f : findings) {
    const std::size_t di = find_allow(f);
    if (di < lx.directives.size()) {
      allow_used[di] = true;
      report.suppressed.push_back(
          {std::string(file), f.line, f.rule, std::move(f.message)});
    } else {
      active.push_back(std::move(f));
    }
  }

  // unused-suppression: reasoned allows of non-meta rules that fired on
  // nothing. (Checked after suppression so order within a line cannot
  // matter.) These are themselves suppressible one line above.
  std::vector<Finding> unused;
  for (std::size_t di = 0; di < lx.directives.size(); ++di) {
    const Directive& d = lx.directives[di];
    if (d.kind != Directive::Kind::kAllow || !d.has_reason) continue;
    if (allow_used[di]) continue;
    const bool all_known_non_meta =
        !d.rule_names.empty() &&
        std::all_of(d.rule_names.begin(), d.rule_names.end(),
                    [](const std::string& r) {
                      return is_rule(r) && !is_meta_rule(r);
                    });
    if (!all_known_non_meta) continue;
    unused.push_back({d.line, "unused-suppression",
                      "lint:allow(" + d.rule_names.front() +
                          (d.rule_names.size() > 1 ? ", ..." : "") +
                          ") suppresses nothing on this line"});
  }
  for (Finding& f : unused) {
    const std::size_t di = find_allow(f);
    if (di < lx.directives.size()) {
      report.suppressed.push_back(
          {std::string(file), f.line, f.rule, std::move(f.message)});
    } else {
      active.push_back(std::move(f));
    }
  }

  std::sort(active.begin(), active.end(), [](const Finding& a,
                                             const Finding& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  for (Finding& f : active) {
    report.violations.push_back(
        {std::string(file), f.line, f.rule, std::move(f.message)});
  }
  return report;
}

FileReport lint_file(const std::string& path) {
  std::string context;
  if (path.size() > 4 && path.compare(path.size() - 4, 4, ".cpp") == 0) {
    const std::string header = path.substr(0, path.size() - 4) + ".hpp";
    if (std::filesystem::exists(header)) context = read_file(header);
  }
  return lint_source(path, read_file(path), context);
}

std::vector<std::string> collect_inputs(
    const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    if (fs::is_directory(p)) {
      for (const auto& e : fs::recursive_directory_iterator(p)) {
        if (!e.is_regular_file()) continue;
        const std::string ext = e.path().extension().string();
        if (ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h") {
          files.push_back(e.path().string());
        }
      }
    } else if (fs::exists(p)) {
      files.push_back(p);
    } else {
      throw std::runtime_error("no such input: " + p);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

}  // namespace llamcat::lint
