// The seven ecotune analyses — repo-specific invariants no generic tool
// enforces:
//
//   locale-number-io     C locale-dependent number parsing/formatting
//                        outside the common/ wrappers.
//   nondeterministic-seed
//                        entropy/clock seeding outside common/rng.
//   unordered-iteration  iterating an unordered container in a file that
//                        writes to an output sink (hash order would leak
//                        into byte-identical stdout).
//   raw-thread           raw std::thread / detached threads outside
//                        common/parallel (the pool owns the determinism
//                        contract: task-keyed RNG, ordered reductions).
//   lock-discipline      manual .lock()/.unlock()/.try_lock() calls or
//                        mutex members without a GUARDED_BY guardee
//                        outside src/common/ (the annotated wrapper layer)
//                        — everything else must hold locks through the
//                        Clang-provable MutexLock.
//   include-layering     #include edges that cross the src/ module DAG
//                        declared by the DEPS lists in src/*/CMakeLists.txt.
//   raw-intrinsics       x86 vector intrinsics (_mm* calls, __m128/__m256/
//                        __m512 types, *intrin.h headers) outside
//                        src/common/simd.hpp — the one file that owns the
//                        width wrappers, the dispatch levels, and the
//                        determinism contract they promise.
//
// Waiver: a trailing comment on the flagged line of the form
//   // ecotune-lint: allow(<rule>[, <rule>...])  -- reason
// suppresses the named rules for that line only.

#include "lint/rules.hpp"

#include <set>

#include "lint/include_graph.hpp"

namespace ecotune::lint {
namespace {

void emit(std::vector<Diagnostic>& out, const Source& src, const
          std::string& path, std::size_t offset, const std::string& rule,
          std::string message) {
  const int line = line_of(src, offset);
  const auto it = src.allows.find(line);
  if (it != src.allows.end() && it->second.contains(rule)) return;
  out.push_back(Diagnostic{path, line, rule, std::move(message)});
}

// --------------------------------------------------------------------------
// locale-number-io: locale-dependent number I/O outside common/ wrappers.
// --------------------------------------------------------------------------
void check_locale_number_io(const Source& src, const std::string& path,
                            std::vector<Diagnostic>& out) {
  if (path.starts_with("src/common/")) return;
  static const char* const kParseFns[] = {
      "atoi",    "atof",    "atol",    "atoll",   "strtol",  "strtoll",
      "strtoul", "strtoull", "strtof", "strtod",  "strtold", "stoi",
      "stol",    "stoll",   "stoul",   "stoull",  "stof",    "stod",
      "stold",   "scanf",   "sscanf",  "fscanf",  "vsscanf"};
  for (const char* fn : kParseFns) {
    for (const std::size_t pos : find_tokens(src.masked, fn)) {
      if (member_access(src.masked, pos)) continue;
      if (looks_like_declaration(src.masked, pos)) continue;
      if (!followed_by_call(src.masked, pos + std::string(fn).size()))
        continue;
      emit(out, src, path, pos, "locale-number-io",
           std::string("'") + fn +
               "' parses numbers through the process locale; use the "
               "locale-independent wrappers (common/cli parse_strict_int, "
               "common/numbers parse_double, common/json)");
    }
  }
  static const char* const kPrintfFns[] = {
      "printf",  "fprintf",  "sprintf", "snprintf",
      "vprintf", "vfprintf", "vsprintf", "vsnprintf"};
  for (const char* fn : kPrintfFns) {
    for (const std::size_t pos : find_tokens(src.masked, fn)) {
      if (member_access(src.masked, pos)) continue;
      const std::string fmt =
          call_literal_text(src, pos + std::string(fn).size());
      if (!has_float_conversion(fmt)) continue;
      emit(out, src, path, pos, "locale-number-io",
           std::string("'") + fn +
               "' with a floating-point conversion formats through the "
               "process locale; use common/numbers format_double");
    }
  }
}

// --------------------------------------------------------------------------
// nondeterministic-seed: entropy/clock seeding outside common/rng.
// --------------------------------------------------------------------------
void check_nondeterministic_seed(const Source& src, const std::string& path,
                                 std::vector<Diagnostic>& out) {
  if (path.starts_with("src/common/rng.")) return;
  for (const std::size_t pos : find_tokens(src.masked, "random_device"))
    emit(out, src, path, pos, "nondeterministic-seed",
         "std::random_device draws fresh entropy per run; derive streams "
         "from a seeded common/rng Rng (Rng::fork) instead");
  static const char* const kClockFns[] = {"rand", "srand", "time",
                                          "gettimeofday", "clock"};
  for (const char* fn : kClockFns) {
    for (const std::size_t pos : find_tokens(src.masked, fn)) {
      if (member_access(src.masked, pos)) continue;
      if (looks_like_declaration(src.masked, pos)) continue;
      if (!followed_by_call(src.masked, pos + std::string(fn).size()))
        continue;
      emit(out, src, path, pos, "nondeterministic-seed",
           std::string("'") + fn +
               "(' injects wall-clock/libc entropy into the run; "
               "determinism-relevant randomness must flow from a seeded "
               "common/rng Rng");
    }
  }
}

// --------------------------------------------------------------------------
// unordered-iteration: unordered-container walks in output-writing files.
// --------------------------------------------------------------------------
const std::set<std::string>& noise_idents() {
  static const std::set<std::string> kNoise = {
      "std",      "unordered_map", "unordered_set", "auto",     "const",
      "constexpr", "static",       "new",           "delete",   "using",
      "typedef",  "struct",        "class",         "public",   "private",
      "if",       "for",           "while",         "return",   "void",
      "int",      "bool",          "char",          "double",   "float",
      "unsigned", "long",          "size_t",        "uint64_t", "int64_t",
      "string",   "string_view",   "vector",        "pair",     "include",
      "pragma",   "once",          "namespace",     "template", "typename",
      "inline",   "mutable",       "this"};
  return kNoise;
}

bool writes_output_sink(const Source& src) {
  const std::string& m = src.masked;
  if (!find_tokens(m, "cout").empty()) return true;
  for (const char* fn : {"printf", "puts"}) {
    for (const std::size_t pos : find_tokens(m, fn)) {
      if (member_access(m, pos)) continue;
      if (followed_by_call(m, pos + std::string(fn).size())) return true;
    }
  }
  for (const char* fn : {"fprintf", "fputs", "fwrite"}) {
    for (const std::size_t pos : find_tokens(m, fn)) {
      if (member_access(m, pos)) continue;
      // Stream-directed: only stdout counts as a determinism sink.
      const std::size_t stop = std::min(m.size(), pos + 200);
      if (m.find("stdout", pos) < stop) return true;
    }
  }
  return false;
}

void check_unordered_iteration(const Source& src, const std::string& path,
                               std::vector<Diagnostic>& out) {
  const std::string& m = src.masked;
  if (m.find("unordered_map") == std::string::npos &&
      m.find("unordered_set") == std::string::npos)
    return;
  if (!writes_output_sink(src)) return;

  // Candidate container names: every non-noise identifier appearing on a
  // line that mentions an unordered container type.
  std::set<std::string> candidates;
  std::size_t start = 0;
  for (std::size_t li = 0; li < src.line_starts.size(); ++li) {
    start = src.line_starts[li];
    const std::size_t end = li + 1 < src.line_starts.size()
                                ? src.line_starts[li + 1]
                                : m.size();
    const std::string line = m.substr(start, end - start);
    if (line.find("unordered_map") == std::string::npos &&
        line.find("unordered_set") == std::string::npos)
      continue;
    for (const std::string& id : idents_on(line))
      if (!noise_idents().contains(id)) candidates.insert(id);
  }

  // Range-for over a candidate (or over any expression spelling an
  // unordered container type directly).
  for (const std::size_t pos : find_tokens(m, "for")) {
    std::size_t p = next_nonspace(m, pos + 3);
    if (p >= m.size() || m[p] != '(') continue;
    int depth = 0;
    std::size_t colon = std::string::npos, close = std::string::npos;
    for (std::size_t k = p; k < m.size(); ++k) {
      if (m[k] == '(') ++depth;
      if (m[k] == ')' && --depth == 0) {
        close = k;
        break;
      }
      if (m[k] == ':' && depth == 1) {
        if (k + 1 < m.size() && m[k + 1] == ':') {
          ++k;
          continue;
        }
        if (k > 0 && m[k - 1] == ':') continue;
        if (colon == std::string::npos) colon = k;
      }
    }
    if (colon == std::string::npos || close == std::string::npos) continue;
    const std::string range = m.substr(colon + 1, close - colon - 1);
    const std::vector<std::string> ids = idents_on(range);
    const bool direct = range.find("unordered_") != std::string::npos;
    const bool named =
        !ids.empty() && candidates.contains(ids.front());
    if (direct || named) {
      emit(out, src, path, pos, "unordered-iteration",
           "range-for over unordered container" +
               (named ? " '" + ids.front() + "'" : std::string()) +
               " in a file that writes to an output sink; hash order is "
               "not deterministic — use std::map/std::set or sort first");
    }
  }

  // Explicit iterator walks: candidate.begin() / candidate.cbegin().
  for (const char* fn : {"begin", "cbegin"}) {
    for (const std::size_t pos : find_tokens(m, fn)) {
      if (!member_access(m, pos)) continue;
      if (!followed_by_call(m, pos + std::string(fn).size())) continue;
      std::size_t p = prev_nonspace(m, pos);  // '.' or '>'
      if (p == std::string::npos) continue;
      if (m[p] == '>') --p;  // '->'
      if (p == std::string::npos || p == 0) continue;
      std::size_t e = prev_nonspace(m, p);
      if (e == std::string::npos || !is_ident(m[e])) continue;
      std::size_t b = e;
      while (b > 0 && is_ident(m[b - 1])) --b;
      const std::string name = m.substr(b, e - b + 1);
      if (!candidates.contains(name)) continue;
      emit(out, src, path, pos, "unordered-iteration",
           "iterator walk over unordered container '" + name +
               "' in a file that writes to an output sink; hash order is "
               "not deterministic — use std::map/std::set or sort first");
    }
  }
}

// --------------------------------------------------------------------------
// raw-thread: raw std::thread / detached threads outside common/parallel.
// --------------------------------------------------------------------------
void check_raw_thread(const Source& src, const std::string& path,
                      std::vector<Diagnostic>& out) {
  if (path.starts_with("src/common/parallel.")) return;
  const std::string& m = src.masked;
  for (const char* cls : {"thread", "jthread"}) {
    for (const std::size_t pos : find_tokens(m, cls)) {
      // Only the std:: spellings; a member named `thread` is fine.
      if (pos < 2 || m[pos - 1] != ':' || m[pos - 2] != ':') continue;
      std::size_t b = pos - 2;
      std::size_t e = prev_nonspace(m, b);
      if (e == std::string::npos) continue;
      std::size_t s = e;
      while (s > 0 && is_ident(m[s - 1])) --s;
      if (m.substr(s, e - s + 1) != "std") continue;
      emit(out, src, path, pos, "raw-thread",
           std::string("std::") + cls +
               " outside common/parallel; route concurrency through "
               "ThreadPool/parallel_for_each so task-keyed RNG and "
               "ordered reductions keep output jobs-invariant");
    }
  }
  for (const std::size_t pos : find_tokens(m, "detach")) {
    if (!member_access(m, pos)) continue;
    if (!followed_by_call(m, pos + 6)) continue;
    emit(out, src, path, pos, "raw-thread",
         "detached threads outlive the scope that can join them; "
         "common/parallel owns every worker's lifetime");
  }
}

// --------------------------------------------------------------------------
// lock-discipline: manual lock calls / unguarded mutexes outside common/.
// --------------------------------------------------------------------------

/// The names every ECOTUNE_GUARDED_BY / ECOTUNE_PT_GUARDED_BY annotation in
/// the file declares as a guard (paren contents, whitespace stripped).
std::set<std::string> guarded_by_targets(const Source& src) {
  std::set<std::string> guards;
  const std::string& m = src.masked;
  for (const char* macro : {"ECOTUNE_GUARDED_BY", "ECOTUNE_PT_GUARDED_BY"}) {
    for (const std::size_t pos : find_tokens(m, macro)) {
      std::size_t p = next_nonspace(m, pos + std::string(macro).size());
      if (p >= m.size() || m[p] != '(') continue;
      int depth = 0;
      std::string arg;
      for (; p < m.size(); ++p) {
        if (m[p] == '(' && ++depth == 1) continue;
        if (m[p] == ')' && --depth == 0) break;
        if (!is_space(m[p])) arg += m[p];
      }
      if (!arg.empty()) guards.insert(arg);
    }
  }
  return guards;
}

void check_lock_discipline(const Source& src, const std::string& path,
                           std::vector<Diagnostic>& out) {
  // src/common/ is the annotated wrapper layer itself: Mutex forwards the
  // raw calls, MutexLock relocks around cv waits, and the pool hands its
  // lock across the batch drain. Everything above it must go through them.
  if (path.starts_with("src/common/")) return;
  const std::string& m = src.masked;

  // Manual lock management: obj.lock() / obj->unlock() / obj.try_lock().
  // Scoped RAII (MutexLock, lock_guard) is invisible to this check — only
  // the manual call pairs the Clang analysis cannot pair up are flagged.
  for (const char* fn : {"lock", "unlock", "try_lock"}) {
    for (const std::size_t pos : find_tokens(m, fn)) {
      if (!member_access(m, pos)) continue;
      if (!followed_by_call(m, pos + std::string(fn).size())) continue;
      emit(out, src, path, pos, "lock-discipline",
           std::string("manual '.") + fn +
               "()' call; hold locks through a scoped MutexLock "
               "(common/mutex) so the Clang -Wthread-safety lane can pair "
               "acquire with release (manual pairs leak on exceptions and "
               "early returns)");
    }
  }

  // Mutex members that guard nothing: a mutex declaration in a file with
  // no ECOTUNE_GUARDED_BY naming it means the compiler cannot prove any
  // access discipline — the mutex is decorative.
  static const char* const kMutexTypes[] = {
      "mutex", "Mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
      "recursive_timed_mutex", "shared_timed_mutex"};
  const std::set<std::string> guards = guarded_by_targets(src);
  for (const char* type : kMutexTypes) {
    for (const std::size_t pos : find_tokens(m, type)) {
      // A declaration site: `<type> name ;|=|{` — template arguments
      // (`lock_guard<std::mutex>`), references, and parameters all fail
      // the shape test and are skipped.
      std::size_t p = next_nonspace(m, pos + std::string(type).size());
      if (p >= m.size() || !is_ident(m[p]) ||
          std::isdigit(static_cast<unsigned char>(m[p])) != 0)
        continue;
      std::size_t e = p;
      while (e < m.size() && is_ident(m[e])) ++e;
      const std::string name = m.substr(p, e - p);
      const std::size_t after = next_nonspace(m, e);
      if (after >= m.size() ||
          (m[after] != ';' && m[after] != '=' && m[after] != '{'))
        continue;
      if (guards.contains(name)) continue;
      emit(out, src, path, pos, "lock-discipline",
           "mutex '" + name +
               "' has no ECOTUNE_GUARDED_BY(" + name +
               ") guardee in this file; annotate the data it protects "
               "(common/thread_annotations) so the Clang lane can prove "
               "the lock discipline, and use ecotune::Mutex, not "
               "std::mutex, as the capability type");
    }
  }
}

// --------------------------------------------------------------------------
// include-layering: #include edges must follow the src/ module DAG.
// --------------------------------------------------------------------------
void check_include_layering(const Source& src, const std::string& path,
                            std::vector<Diagnostic>& out) {
  const std::string from = module_of(path);
  if (from.empty()) return;
  // Include paths live inside string literals, which the mask blanks —
  // directives are parsed from the ORIGINAL text, line by line.
  for (std::size_t li = 0; li < src.line_starts.size(); ++li) {
    const std::size_t start = src.line_starts[li];
    const std::size_t stop = li + 1 < src.line_starts.size()
                                 ? src.line_starts[li + 1]
                                 : src.original.size();
    const std::string line = src.original.substr(start, stop - start);
    std::size_t p = next_nonspace(line, 0);
    if (p >= line.size() || line[p] != '#') continue;
    p = next_nonspace(line, p + 1);
    if (line.compare(p, 7, "include") != 0) continue;
    p = next_nonspace(line, p + 7);
    if (p >= line.size() || line[p] != '"') continue;  // <...> is external
    const std::size_t close = line.find('"', p + 1);
    if (close == std::string::npos) continue;
    const std::string target = line.substr(p + 1, close - p - 1);
    const std::size_t slash = target.find('/');
    if (slash == std::string::npos) continue;  // same-directory include
    const std::string to = target.substr(0, slash);
    if (!module_dag().contains(to)) continue;  // not a src/ module header
    if (edge_allowed(from, to)) continue;
    emit(out, src, path, start, "include-layering",
         "#include \"" + target + "\" crosses the module DAG: '" + from +
             "' does not declare '" + to +
             "' in its DEPS (src/" + from +
             "/CMakeLists.txt); declare the dependency there first or "
             "invert the edge");
  }
}

// --------------------------------------------------------------------------
// raw-intrinsics: x86 vector intrinsics outside src/common/simd.hpp.
// --------------------------------------------------------------------------
void check_raw_intrinsics(const Source& src, const std::string& path,
                          std::vector<Diagnostic>& out) {
  // simd.hpp is the sanctioned intrinsics site: it owns the V4/VS
  // wrappers, the target attributes, and the rounding-order contract the
  // kernel tests pin. Everywhere else must speak through those wrappers
  // so a new instruction set is one file, not a grep.
  if (path == "src/common/simd.hpp") return;

  // Intrinsic headers: directives are parsed from the ORIGINAL text (the
  // mask blanks quoted paths, and <...> paths are not worth special-casing
  // when the line scan sees both spellings the same way).
  static const std::set<std::string> kHeaders = {
      "immintrin.h", "emmintrin.h", "xmmintrin.h", "pmmintrin.h",
      "smmintrin.h", "tmmintrin.h", "nmmintrin.h", "wmmintrin.h",
      "x86intrin.h"};
  for (std::size_t li = 0; li < src.line_starts.size(); ++li) {
    const std::size_t start = src.line_starts[li];
    const std::size_t stop = li + 1 < src.line_starts.size()
                                 ? src.line_starts[li + 1]
                                 : src.original.size();
    const std::string line = src.original.substr(start, stop - start);
    std::size_t p = next_nonspace(line, 0);
    if (p >= line.size() || line[p] != '#') continue;
    p = next_nonspace(line, p + 1);
    if (line.compare(p, 7, "include") != 0) continue;
    p = next_nonspace(line, p + 7);
    if (p >= line.size() || (line[p] != '<' && line[p] != '"')) continue;
    const char closer = line[p] == '<' ? '>' : '"';
    const std::size_t close = line.find(closer, p + 1);
    if (close == std::string::npos) continue;
    std::string target = line.substr(p + 1, close - p - 1);
    const std::size_t slash = target.rfind('/');
    if (slash != std::string::npos) target = target.substr(slash + 1);
    if (!kHeaders.contains(target)) continue;
    emit(out, src, path, start, "raw-intrinsics",
         "#include <" + target +
             "> pulls raw x86 intrinsics into this file; include "
             "common/simd.hpp and extend its width wrappers instead — "
             "src/common/simd.hpp is the only sanctioned intrinsics site");
  }

  // Intrinsic tokens: _mm_* / _mm256_* / _mm512_* calls and the __m128 /
  // __m256 / __m512 register types (any suffix: d, i, h, ...).
  const std::string& m = src.masked;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (!is_ident(m[i]) || (i > 0 && is_ident(m[i - 1]))) continue;
    std::size_t e = i;
    while (e < m.size() && is_ident(m[e])) ++e;
    const std::string token = m.substr(i, e - i);
    const bool vec_type = token.starts_with("__m128") ||
                          token.starts_with("__m256") ||
                          token.starts_with("__m512");
    const bool mm_call =
        token.starts_with("_mm") && token.size() > 3 &&
        (token[3] == '_' ||
         std::isdigit(static_cast<unsigned char>(token[3])) != 0);
    if (vec_type || mm_call)
      emit(out, src, path, i, "raw-intrinsics",
           "'" + token +
               "' is a raw x86 intrinsic outside src/common/simd.hpp; use "
               "the V4 wrappers (or add the missing operation there) "
               "so dispatch, the scalar fallback, and the determinism "
               "contract stay in one audited file");
    i = e;
  }
}

}  // namespace

std::string_view to_string(Severity severity) {
  switch (severity) {
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "error";
}

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kRules = {
      {"locale-number-io", Severity::kError,
       "locale-dependent number parsing/formatting outside the common/ "
       "wrappers",
       "README.md#locale-number-io", &check_locale_number_io},
      {"nondeterministic-seed", Severity::kError,
       "entropy or clock seeding outside common/rng",
       "README.md#nondeterministic-seed", &check_nondeterministic_seed},
      {"unordered-iteration", Severity::kError,
       "unordered-container iteration in a file that writes to an output "
       "sink",
       "README.md#unordered-iteration", &check_unordered_iteration},
      {"raw-thread", Severity::kError,
       "raw std::thread or detached threads outside common/parallel",
       "README.md#raw-thread", &check_raw_thread},
      {"lock-discipline", Severity::kError,
       "manual lock calls or mutex members without a GUARDED_BY guardee "
       "outside src/common/",
       "README.md#lock-discipline", &check_lock_discipline},
      {"include-layering", Severity::kError,
       "#include edges that cross the src/ module DAG declared in CMake",
       "README.md#include-layering", &check_include_layering},
      {"raw-intrinsics", Severity::kError,
       "x86 vector intrinsics (_mm*, __m128/__m256/__m512, *intrin.h) "
       "outside src/common/simd.hpp",
       "README.md#raw-intrinsics", &check_raw_intrinsics},
  };
  return kRules;
}

}  // namespace ecotune::lint
