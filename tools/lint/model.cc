#include "tools/lint/model.h"

#include <algorithm>
#include <deque>
#include <functional>

namespace aneci::lint {
namespace {

using Toks = std::vector<Token>;

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool IsIdentTok(const Token& t) { return t.kind == TokenKind::kIdentifier; }

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// Index just past a balanced bracket run starting at `i` (tokens[i] must
/// be the opener). Returns toks.size() when unbalanced.
size_t SkipBalanced(const Toks& toks, size_t i, const char* open,
                    const char* close) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (IsPunct(toks[i], open)) ++depth;
    if (IsPunct(toks[i], close) && --depth == 0) return i + 1;
  }
  return toks.size();
}

/// Index of the '(' matching the ')' at `i`; toks.size() when unbalanced.
size_t OpenBackward(const Toks& toks, size_t i) {
  int depth = 0;
  for (size_t k = i + 1; k-- > 0;) {
    if (IsPunct(toks[k], ")")) ++depth;
    if (IsPunct(toks[k], "(") && --depth == 0) return k;
  }
  return toks.size();
}

/// Identifiers that can precede a '(' without being a callable or a
/// function definition name.
bool IsStatementKeyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",       "while",     "for",      "switch",   "return",
      "catch",    "sizeof",    "alignof",  "decltype", "new",
      "delete",   "throw",     "else",     "do",       "case",
      "goto",     "co_return", "co_await", "co_yield", "using",
      "typedef",  "operator",  "static_assert",        "static_cast",
      "dynamic_cast",          "const_cast",           "reinterpret_cast",
      "noexcept", "alignas",   "defined"};
  return kKeywords.count(s) > 0;
}

bool IsMutexType(const std::string& s) {
  return s == "mutex" || s == "recursive_mutex" || s == "shared_mutex" ||
         s == "timed_mutex" || s == "recursive_timed_mutex" ||
         s == "shared_timed_mutex";
}

bool IsLockClass(const std::string& s) {
  return s == "lock_guard" || s == "scoped_lock" || s == "unique_lock" ||
         s == "shared_lock";
}

bool IsAneciMacro(const std::string& s) {
  return s.rfind("ANECI_", 0) == 0;
}

std::string JoinTexts(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) out += p;
  return out;
}

/// Splits the argument tokens of a balanced paren group [open, close] into
/// top-level comma-separated expressions, each as a vector of token texts.
std::vector<std::vector<std::string>> SplitArgs(const Toks& toks, size_t open,
                                                size_t close) {
  std::vector<std::vector<std::string>> args;
  std::vector<std::string> cur;
  int depth = 0;
  for (size_t k = open; k <= close && k < toks.size(); ++k) {
    const Token& t = toks[k];
    const bool opener = IsPunct(t, "(") || IsPunct(t, "{") || IsPunct(t, "[");
    const bool closer = IsPunct(t, ")") || IsPunct(t, "}") || IsPunct(t, "]");
    if (opener) {
      if (depth > 0) cur.push_back(t.text);
      ++depth;
      continue;
    }
    if (closer) {
      --depth;
      if (depth > 0) cur.push_back(t.text);
      if (depth == 0) break;
      continue;
    }
    if (depth == 1 && IsPunct(t, ",")) {
      if (!cur.empty()) args.push_back(std::move(cur));
      cur.clear();
      continue;
    }
    cur.push_back(t.text);
  }
  if (!cur.empty()) args.push_back(std::move(cur));
  return args;
}

/// True for std::defer_lock / adopt_lock / try_to_lock tag arguments.
bool IsLockTag(const std::vector<std::string>& expr, const char* tag) {
  return !expr.empty() && expr.back() == tag;
}

}  // namespace

// --- Canonical mutex identities ---------------------------------------------
//
// A mutex needs ONE name across every file that locks it, or the acquisition
// graph falls apart — most classes here call their mutex `mu_`, so the bare
// member name must not merge across classes. Rules:
//   * a bare member of the enclosing class (or `this->m`)  ->  "Class::m"
//   * `Class::m` spelled explicitly                        ->  "Class::m"
//   * a bare identifier outside any class                  ->  "file::m"
//     (file-scoped: a static global merges within its file only)
//   * anything else (`job->mu`, `*pm`)                     ->  a
//     function-local id; such locks still get scope/region tracking but
//     never merge across functions, which keeps over-approximation from
//     inventing cross-file deadlock edges.
namespace {

std::string CanonicalMutex(std::vector<std::string> expr,
                           const std::string& class_name,
                           const std::map<std::string, ClassInfo>& classes,
                           const std::string& file,
                           const std::string& local_scope) {
  // Strip `this->` and a leading `std::`-free `&` (lock-by-reference).
  while (!expr.empty() && (expr.front() == "&" || expr.front() == "*"))
    expr.erase(expr.begin());
  if (expr.size() >= 2 && expr[0] == "this" && expr[1] == "->")
    expr.erase(expr.begin(), expr.begin() + 2);
  if (expr.empty()) return file + "#" + local_scope + "#<empty>";
  if (expr.size() == 1) {
    const std::string& m = expr[0];
    if (!class_name.empty()) {
      auto it = classes.find(class_name);
      if (it != classes.end() && it->second.mutex_members.count(m))
        return class_name + "::" + m;
    }
    return file + "::" + m;
  }
  if (expr.size() == 3 && expr[1] == "::") return expr[0] + "::" + expr[2];
  return file + "#" + local_scope + "#" + JoinTexts(expr);
}

}  // namespace

// --- Class parsing ----------------------------------------------------------

void ProjectModel::ParseClasses(const SourceFile& file) {
  const Toks& toks = file.tokens->tokens;
  auto& spans = class_spans_[file.path];

  // Pass A: class body spans + mutex members (annotation canonicalization
  // in pass B needs the full mutex-member sets).
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "class") && !IsIdent(toks[i], "struct")) continue;
    if (i > 0 && IsIdent(toks[i - 1], "enum")) continue;
    if (!IsIdentTok(toks[i + 1])) continue;
    const std::string name = toks[i + 1].text;
    size_t k = i + 2;
    if (k < toks.size() && IsIdent(toks[k], "final")) ++k;
    if (k < toks.size() && IsPunct(toks[k], ":")) {
      while (k < toks.size() && !IsPunct(toks[k], "{") &&
             !IsPunct(toks[k], ";"))
        ++k;
    }
    // Forward declarations, `template <class T>`, `struct X x;` all lack a
    // body brace here and are skipped.
    if (k >= toks.size() || !IsPunct(toks[k], "{")) continue;
    const size_t end = SkipBalanced(toks, k, "{", "}");
    spans.push_back({name, {k, end}});

    ClassInfo& info = classes_[name];
    int depth = 0;
    for (size_t j = k; j < end; ++j) {
      if (IsPunct(toks[j], "{")) ++depth;
      if (IsPunct(toks[j], "}")) --depth;
      if (depth != 1) continue;
      if (toks[j].kind == TokenKind::kIdentifier &&
          IsMutexType(toks[j].text) && j + 2 < end &&
          IsIdentTok(toks[j + 1]) && IsPunct(toks[j + 2], ";")) {
        info.mutex_members.insert(toks[j + 1].text);
      }
    }
  }
}

void ProjectModel::ParseClassAnnotations(const SourceFile& file) {
  const Toks& toks = file.tokens->tokens;
  for (const auto& span : class_spans_[file.path]) {
    const std::string& cls = span.first;
    ClassInfo& info = classes_[cls];
    int depth = 0;
    for (size_t j = span.second.first; j < span.second.second; ++j) {
      if (IsPunct(toks[j], "{")) ++depth;
      if (IsPunct(toks[j], "}")) --depth;
      if (depth != 1) continue;
      if (toks[j].kind != TokenKind::kIdentifier) continue;
      const std::string& macro = toks[j].text;
      if (!IsAneciMacro(macro) || j + 1 >= toks.size() ||
          !IsPunct(toks[j + 1], "("))
        continue;
      const size_t past = SkipBalanced(toks, j + 1, "(", ")");
      if (past == toks.size()) continue;
      std::vector<std::string> ids;
      for (auto& arg : SplitArgs(toks, j + 1, past - 1))
        ids.push_back(CanonicalMutex(arg, cls, classes_, file.path, cls));

      if (macro == "ANECI_GUARDED_BY" || macro == "ANECI_PT_GUARDED_BY") {
        if (j > 0 && IsIdentTok(toks[j - 1]) && !ids.empty())
          info.guarded[toks[j - 1].text] = ids.front();
        continue;
      }
      const bool req = macro == "ANECI_REQUIRES";
      const bool acq = macro == "ANECI_ACQUIRE";
      const bool rel = macro == "ANECI_RELEASE";
      const bool exc = macro == "ANECI_EXCLUDES";
      if (!req && !acq && !rel && !exc) continue;

      // Walk back to the method name: over trailing specifiers and any
      // earlier annotation macros, then through the parameter list.
      size_t b = j;
      while (b > 0) {
        --b;
        const Token& t = toks[b];
        if (IsIdent(t, "const") || IsIdent(t, "override") ||
            IsIdent(t, "final") || IsIdent(t, "noexcept"))
          continue;
        if (!IsPunct(t, ")")) break;
        const size_t open = OpenBackward(toks, b);
        if (open == toks.size() || open == 0) break;
        const Token& before = toks[open - 1];
        if (IsIdent(before, "noexcept") || (IsIdentTok(before) &&
                                            IsAneciMacro(before.text))) {
          b = open - 1;  // skip `noexcept(...)` / a prior annotation
          continue;
        }
        // This ')' closes the parameter list; the name precedes its '('.
        if (IsIdentTok(before)) {
          std::string method = before.text;
          if (open >= 2 && IsPunct(toks[open - 2], "~")) method = "~" + method;
          auto& dest = req   ? info.requires_held
                       : acq ? info.acquires_on_return
                       : rel ? info.releases
                             : info.excludes;
          for (const std::string& id : ids) dest[method].push_back(id);
        }
        break;
      }
    }
  }
}

// --- Function discovery -----------------------------------------------------

void ProjectModel::ParseFunctions(const SourceFile& file) {
  const Toks& toks = file.tokens->tokens;
  const auto& spans = class_spans_[file.path];
  const size_t n = toks.size();

  for (size_t i = 0; i < n; ++i) {
    if (toks[i].kind != TokenKind::kIdentifier) continue;
    if (IsStatementKeyword(toks[i].text) || IsLockClass(toks[i].text) ||
        IsAneciMacro(toks[i].text))
      continue;
    if (i + 1 >= n || !IsPunct(toks[i + 1], "(")) continue;

    std::string name = toks[i].text;
    std::string qual_class;
    size_t start = i;
    if (i >= 1 && IsPunct(toks[i - 1], "~")) {
      name = "~" + name;
      start = i - 1;
    }
    if (start >= 2 && IsPunct(toks[start - 1], "::") &&
        IsIdentTok(toks[start - 2]))
      qual_class = toks[start - 2].text;

    size_t j = SkipBalanced(toks, i + 1, "(", ")");
    if (j >= n) continue;

    // Trailing specifiers and annotations between the parameter list and
    // the body (or the ctor initializer list).
    size_t k = j;
    while (k < n) {
      const Token& t = toks[k];
      if (IsIdent(t, "const") || IsIdent(t, "override") ||
          IsIdent(t, "final") || IsIdent(t, "mutable")) {
        ++k;
        continue;
      }
      if (IsIdent(t, "noexcept")) {
        ++k;
        if (k < n && IsPunct(toks[k], "(")) k = SkipBalanced(toks, k, "(", ")");
        continue;
      }
      if (IsIdentTok(t) && IsAneciMacro(t.text) && k + 1 < n &&
          IsPunct(toks[k + 1], "(")) {
        k = SkipBalanced(toks, k + 1, "(", ")");
        continue;
      }
      if (IsPunct(t, "->")) {  // trailing return type
        ++k;
        while (k < n && (IsIdentTok(toks[k]) || IsPunct(toks[k], "::") ||
                         IsPunct(toks[k], "&") || IsPunct(toks[k], "*")))
          ++k;
        if (k < n && IsPunct(toks[k], "<")) k = SkipBalanced(toks, k, "<", ">");
        continue;
      }
      break;
    }

    size_t body = n;
    if (k < n && IsPunct(toks[k], "{")) {
      body = k;
    } else if (k < n && IsPunct(toks[k], ":")) {
      // Constructor initializer list: `name(...), base{...}` entries until
      // the body brace.
      size_t m = k + 1;
      while (m < n) {
        size_t e = m;
        while (e < n && (IsIdentTok(toks[e]) || IsPunct(toks[e], "::"))) ++e;
        if (e < n && IsPunct(toks[e], "<")) e = SkipBalanced(toks, e, "<", ">");
        if (e >= n) break;
        if (IsPunct(toks[e], "("))
          e = SkipBalanced(toks, e, "(", ")");
        else if (IsPunct(toks[e], "{"))
          e = SkipBalanced(toks, e, "{", "}");
        else
          break;
        if (e < n && IsPunct(toks[e], ",")) {
          m = e + 1;
          continue;
        }
        if (e < n && IsPunct(toks[e], "{")) body = e;
        break;
      }
    }
    if (body >= n) continue;
    const size_t end = SkipBalanced(toks, body, "{", "}");

    std::string cls = qual_class;
    if (cls.empty()) {
      // Innermost class body lexically containing the definition.
      for (const auto& span : spans) {
        if (i > span.second.first && i < span.second.second) cls = span.first;
      }
    }

    FunctionInfo fn;
    fn.name = name;
    fn.class_name = cls;
    fn.file = file.path;
    fn.line = toks[i].line;
    fn.ctor_dtor = !cls.empty() && (name == cls || name == "~" + cls);
    AnalyzeBody(file, &fn, body, end);
    by_name_[fn.name].push_back(static_cast<int>(functions_.size()));
    functions_.push_back(std::move(fn));
    i = end - 1;  // a body is never itself a definition site
  }
}

// --- Per-function body analysis ---------------------------------------------

void ProjectModel::AnalyzeBody(const SourceFile& file, FunctionInfo* fn,
                               size_t body_begin, size_t body_end) {
  const Toks& toks = file.tokens->tokens;
  const std::string scope =
      fn->class_name.empty() ? fn->name : fn->class_name + "::" + fn->name;
  auto canon = [&](const std::vector<std::string>& expr) {
    return CanonicalMutex(expr, fn->class_name, classes_, fn->file, scope);
  };

  const ClassInfo* cls = nullptr;
  if (!fn->class_name.empty()) {
    auto it = classes_.find(fn->class_name);
    if (it != classes_.end()) cls = &it->second;
  }

  // Lambda-introducer scan: body braces of lambdas start with an empty
  // held-set (the body runs later, on some other thread or stack) unless
  // the lambda is a condition_variable wait predicate.
  std::set<size_t> lambda_braces;
  for (size_t i = body_begin; i < body_end; ++i) {
    if (!IsPunct(toks[i], "[")) continue;
    if (i > 0) {
      const Token& p = toks[i - 1];
      if (IsIdentTok(p) || p.kind == TokenKind::kNumber ||
          p.kind == TokenKind::kString || IsPunct(p, ")") || IsPunct(p, "]"))
        continue;  // subscript, not a lambda introducer
    }
    size_t j = SkipBalanced(toks, i, "[", "]");
    if (j < body_end && IsPunct(toks[j], "("))
      j = SkipBalanced(toks, j, "(", ")");
    while (j < body_end) {
      if (IsIdent(toks[j], "mutable") || IsIdent(toks[j], "constexpr")) {
        ++j;
        continue;
      }
      if (IsIdent(toks[j], "noexcept")) {
        ++j;
        if (j < body_end && IsPunct(toks[j], "("))
          j = SkipBalanced(toks, j, "(", ")");
        continue;
      }
      if (IsPunct(toks[j], "->")) {
        ++j;
        while (j < body_end &&
               (IsIdentTok(toks[j]) || IsPunct(toks[j], "::") ||
                IsPunct(toks[j], "&") || IsPunct(toks[j], "*")))
          ++j;
        if (j < body_end && IsPunct(toks[j], "<"))
          j = SkipBalanced(toks, j, "<", ">");
        continue;
      }
      break;
    }
    if (j < body_end && IsPunct(toks[j], "{")) lambda_braces.insert(j);
  }

  struct HeldLock {
    std::string id;
    int frame;
    std::string var;  // unique_lock variable, when there is one
  };
  struct Frame {
    bool lambda = false;
    bool inherited = false;  // cv-wait predicate: keeps the caller's locks
    std::vector<HeldLock> saved;
  };
  std::vector<HeldLock> held;
  std::vector<Frame> frames;
  std::vector<bool> paren_cv;          // open-paren stack: cv-wait call?
  std::map<std::string, std::string> lock_vars;  // unique_lock var -> mutex
  int detached_depth = 0;

  auto held_ids = [&] {
    std::vector<std::string> ids;
    for (const HeldLock& h : held)
      if (std::find(ids.begin(), ids.end(), h.id) == ids.end())
        ids.push_back(h.id);
    return ids;
  };
  auto holds = [&](const std::string& id) {
    for (const HeldLock& h : held)
      if (h.id == id) return true;
    return false;
  };
  auto acquire = [&](const std::string& id, int line, const std::string& var) {
    for (const std::string& h : held_ids())
      fn->edges.push_back({h, id, fn->file, line});
    held.push_back({id, static_cast<int>(frames.size()), var});
    if (detached_depth == 0) fn->acquires.insert(id);
    if (!var.empty()) lock_vars[var] = id;
  };
  auto release = [&](const std::string& id) {
    for (size_t h = held.size(); h-- > 0;) {
      if (held[h].id == id) {
        held.erase(held.begin() + static_cast<long>(h));
        return;
      }
    }
  };
  auto access_finding = [&](int line, const std::string& message) {
    access_findings_.push_back(
        {fn->file, line, "guarded-member-access", message});
  };

  // ANECI_REQUIRES / ANECI_RELEASE context: the caller holds these on
  // entry. Frame 0 entries survive until the walk ends.
  if (cls != nullptr) {
    for (const auto* map : {&cls->requires_held, &cls->releases}) {
      auto it = map->find(fn->name);
      if (it == map->end()) continue;
      for (const std::string& id : it->second)
        if (!holds(id)) held.push_back({id, 0, ""});
    }
  }

  for (size_t i = body_begin; i < body_end; ++i) {
    const Token& t = toks[i];

    if (IsPunct(t, "{")) {
      Frame f;
      if (lambda_braces.count(i)) {
        f.lambda = true;
        for (bool cv : paren_cv)
          if (cv) f.inherited = true;
        if (!f.inherited) {
          f.saved = held;
          held.clear();
          ++detached_depth;
        }
      }
      frames.push_back(std::move(f));
      continue;
    }
    if (IsPunct(t, "}")) {
      if (frames.empty()) continue;
      Frame f = std::move(frames.back());
      frames.pop_back();
      if (f.lambda && !f.inherited) {
        held = std::move(f.saved);
        --detached_depth;
      } else {
        const int depth = static_cast<int>(frames.size()) + 1;
        for (size_t h = held.size(); h-- > 0;)
          if (held[h].frame >= depth)
            held.erase(held.begin() + static_cast<long>(h));
      }
      continue;
    }
    if (IsPunct(t, "(")) {
      const bool cv_wait =
          i >= 2 && IsPunct(toks[i - 2], ".") &&
          (IsIdent(toks[i - 1], "wait") || IsIdent(toks[i - 1], "wait_for") ||
           IsIdent(toks[i - 1], "wait_until"));
      paren_cv.push_back(cv_wait);
      continue;
    }
    if (IsPunct(t, ")")) {
      if (!paren_cv.empty()) paren_cv.pop_back();
      continue;
    }
    if (t.kind != TokenKind::kIdentifier) continue;

    // RAII lock declarations: std::lock_guard<std::mutex> l(mu_);
    if (IsLockClass(t.text)) {
      size_t j = i + 1;
      if (j < body_end && IsPunct(toks[j], "<"))
        j = SkipBalanced(toks, j, "<", ">");
      if (j + 1 < body_end && IsIdentTok(toks[j]) &&
          (IsPunct(toks[j + 1], "(") || IsPunct(toks[j + 1], "{"))) {
        const std::string var = toks[j].text;
        const size_t past = IsPunct(toks[j + 1], "(")
                                ? SkipBalanced(toks, j + 1, "(", ")")
                                : SkipBalanced(toks, j + 1, "{", "}");
        if (past <= body_end) {
          auto args = SplitArgs(toks, j + 1, past - 1);
          bool defer = false, adopt = false;
          std::vector<std::vector<std::string>> mutexes;
          for (auto& a : args) {
            if (IsLockTag(a, "defer_lock"))
              defer = true;
            else if (IsLockTag(a, "adopt_lock"))
              adopt = true;
            else if (IsLockTag(a, "try_to_lock"))
              ;  // held on success; assume success (over-approximates)
            else
              mutexes.push_back(std::move(a));
          }
          const bool track_var =
              t.text == "unique_lock" || t.text == "shared_lock";
          for (auto& m : mutexes) {
            const std::string id = canon(m);
            if (defer) {
              if (track_var) lock_vars[var] = id;
            } else if (adopt && holds(id)) {
              if (track_var) lock_vars[var] = id;
            } else {
              acquire(id, t.line,
                      track_var && mutexes.size() == 1 ? var : std::string());
            }
          }
        }
      }
      continue;
    }

    // Explicit .lock()/.unlock() on a unique_lock variable or a mutex
    // member of the enclosing class.
    if ((t.text == "lock" || t.text == "unlock" || t.text == "try_lock") &&
        i >= 2 && IsPunct(toks[i - 1], ".") && IsIdentTok(toks[i - 2]) &&
        i + 1 < body_end && IsPunct(toks[i + 1], "(")) {
      const std::string recv = toks[i - 2].text;
      std::string id;
      if (lock_vars.count(recv)) {
        id = lock_vars[recv];
      } else if (cls != nullptr && cls->mutex_members.count(recv) &&
                 !(i >= 4 && (IsPunct(toks[i - 3], ".") ||
                              IsPunct(toks[i - 3], "->")) &&
                   !IsIdent(toks[i - 4], "this"))) {
        id = fn->class_name + "::" + recv;
      }
      if (!id.empty()) {
        if (t.text == "unlock")
          release(id);
        else if (!holds(id) || t.text == "lock")
          acquire(id, t.line, "");
      }
      continue;
    }

    // Banned-nondeterminism call sites (mirrors lint.cc's per-file check;
    // here they are taint SINKS, reported only when reachable from a
    // deterministic entry point).
    {
      const bool call_next =
          i + 1 < body_end && IsPunct(toks[i + 1], "(");
      auto file_ends_with = [&](const std::string& suffix) {
        return fn->file.size() >= suffix.size() &&
               fn->file.compare(fn->file.size() - suffix.size(),
                                suffix.size(), suffix) == 0;
      };
      const bool allow_file = file_ends_with("util/timer.h");
      // CPUID probes are machine-dependent rather than run-to-run
      // nondeterministic; they are a sink everywhere except the one audited
      // backend-selection point.
      const bool allow_cpuid = file_ends_with("linalg/kernels/dispatch.cc");
      if (!allow_file) {
        if (t.text == "random_device") {
          fn->banned.push_back({"std::random_device", t.line});
        } else if (call_next && !allow_cpuid &&
                   (t.text == "__builtin_cpu_supports" ||
                    t.text == "__builtin_cpu_is" ||
                    t.text == "__builtin_cpu_init" ||
                    t.text == "__get_cpuid" ||
                    t.text == "__get_cpuid_count" || t.text == "__cpuid" ||
                    t.text == "__cpuidex")) {
          fn->banned.push_back({"'" + t.text + "()'", t.line});
        } else if (call_next &&
                   (t.text == "rand" || t.text == "srand" ||
                    t.text == "rand_r" || t.text == "drand48" ||
                    t.text == "time" || t.text == "clock")) {
          fn->banned.push_back({"'" + t.text + "()'", t.line});
        } else if (t.text.size() > 6 &&
                   t.text.compare(t.text.size() - 6, 6, "_clock") == 0 &&
                   i + 2 < body_end && IsPunct(toks[i + 1], "::") &&
                   IsIdent(toks[i + 2], "now")) {
          fn->banned.push_back({"std::chrono::" + t.text + "::now()",
                                toks[i + 2].line});
        }
      }
    }

    // Determinism roots: registering det-class telemetry or entering the
    // parallel kernels.
    if (t.text == "kDeterministic" && !fn->det_root) {
      fn->det_root = true;
      fn->det_root_why = "registers MetricClass::kDeterministic telemetry";
    }

    // Guarded-member accesses (bare or this-> only, never via another
    // object; ctors/dtors exempt — the object is not shared yet).
    if (cls != nullptr && !fn->ctor_dtor && cls->guarded.count(t.text)) {
      bool self = true;
      if (i > 0) {
        const Token& p = toks[i - 1];
        if (IsPunct(p, "::") || IsPunct(p, "~")) self = false;
        if ((IsPunct(p, ".") || IsPunct(p, "->")) &&
            !(i >= 2 && IsIdent(toks[i - 2], "this")))
          self = false;
      }
      if (self) {
        const std::string& guard = cls->guarded.at(t.text);
        if (!holds(guard)) {
          access_finding(
              t.line, "member '" + t.text + "' of '" + fn->class_name +
                          "' is ANECI_GUARDED_BY '" + guard +
                          "' but is accessed without holding it in '" + scope +
                          "'; take a lock_guard on the mutex first");
        }
      }
    }

    // Call sites.
    if (i + 1 < body_end && IsPunct(toks[i + 1], "(") &&
        !IsStatementKeyword(t.text) && !IsAneciMacro(t.text)) {
      CallSite call;
      call.name = t.text;
      call.receiver_self = true;
      call.receiver_object = false;
      if (i > 0) {
        const Token& p = toks[i - 1];
        if (IsPunct(p, ".") || IsPunct(p, "->")) {
          call.receiver_self = i >= 2 && IsIdent(toks[i - 2], "this");
          call.receiver_object = !call.receiver_self;
        } else if (IsPunct(p, "::") && i >= 2 && IsIdentTok(toks[i - 2])) {
          call.receiver_self = toks[i - 2].text == fn->class_name;
          call.receiver_object = !call.receiver_self;
        }
      }
      call.sync = detached_depth == 0;
      call.held = held_ids();
      call.line = t.line;

      if (call.name == "ParallelFor" || call.name == "ParallelForChunks") {
        if (!fn->det_root) {
          fn->det_root = true;
          fn->det_root_why = "invokes the ParallelFor kernel entry point";
        }
      }

      // Annotated-call discipline against the enclosing class's methods.
      if (cls != nullptr && call.receiver_self && !fn->ctor_dtor) {
        auto req = cls->requires_held.find(call.name);
        if (req != cls->requires_held.end()) {
          for (const std::string& id : req->second) {
            if (!holds(id)) {
              access_finding(call.line,
                             "call to '" + fn->class_name + "::" + call.name +
                                 "' (ANECI_REQUIRES '" + id +
                                 "') without holding it in '" + scope + "'");
            }
          }
        }
        auto exc = cls->excludes.find(call.name);
        if (exc != cls->excludes.end()) {
          for (const std::string& id : exc->second) {
            if (holds(id)) {
              access_finding(call.line,
                             "call to '" + fn->class_name + "::" + call.name +
                                 "' (ANECI_EXCLUDES '" + id +
                                 "') while holding it in '" + scope +
                                 "'; a non-recursive mutex self-deadlocks");
            }
          }
        }
        auto acq = cls->acquires_on_return.find(call.name);
        if (acq != cls->acquires_on_return.end())
          for (const std::string& id : acq->second)
            if (!holds(id)) acquire(id, call.line, "");
        auto rel = cls->releases.find(call.name);
        if (rel != cls->releases.end())
          for (const std::string& id : rel->second) release(id);
      }

      fn->calls.push_back(std::move(call));
    }
  }

  // Kernel entry points are roots by definition, not only their callers.
  if ((fn->name == "ParallelFor" || fn->name == "ParallelForChunks") &&
      !fn->det_root) {
    fn->det_root = true;
    fn->det_root_why = "is the ParallelFor kernel entry point";
  }
}

// --- Construction & resolution ----------------------------------------------

ProjectModel::ProjectModel(const std::vector<SourceFile>& files) {
  for (const SourceFile& f : files) ParseClasses(f);
  for (const SourceFile& f : files) ParseClassAnnotations(f);
  for (const SourceFile& f : files) ParseFunctions(f);
  std::sort(access_findings_.begin(), access_findings_.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.message < b.message;
            });
  access_findings_.erase(
      std::unique(access_findings_.begin(), access_findings_.end(),
                  [](const Finding& a, const Finding& b) {
                    return a.file == b.file && a.line == b.line &&
                           a.message == b.message;
                  }),
      access_findings_.end());
}

std::string ProjectModel::Qualified(const FunctionInfo& f) const {
  return f.class_name.empty() ? f.name : f.class_name + "::" + f.name;
}

/// Bare-name callee resolution, deliberately over-approximate (every
/// function with that name) but narrowed where the call shape allows:
/// self-calls prefer methods of the caller's own class; `x.name()` calls
/// never resolve to free functions.
std::vector<int> ProjectModel::ResolveCallees(const FunctionInfo& caller,
                                              const CallSite& call) const {
  auto it = by_name_.find(call.name);
  if (it == by_name_.end()) return {};
  const std::vector<int>& cand = it->second;
  if (call.receiver_self && !caller.class_name.empty()) {
    std::vector<int> same;
    for (int c : cand)
      if (functions_[static_cast<size_t>(c)].class_name == caller.class_name)
        same.push_back(c);
    if (!same.empty()) return same;
  }
  if (call.receiver_object) {
    std::vector<int> methods;
    for (int c : cand)
      if (!functions_[static_cast<size_t>(c)].class_name.empty())
        methods.push_back(c);
    return methods;
  }
  return cand;
}

// --- Check: guarded-member-access -------------------------------------------

void ProjectModel::CheckGuardedMemberAccess(std::vector<Finding>* out) const {
  out->insert(out->end(), access_findings_.begin(), access_findings_.end());
}

// --- Check: lock-order-cycle ------------------------------------------------

/// The full deduplicated acquisition graph: direct nesting edges from every
/// body walk, plus call-site expansion through the "may acquire" closure —
/// holding H while calling something that (transitively, over synchronous
/// calls) acquires M is an H -> M edge even when the acquisition happens in
/// another file (the first witness per from/to pair is kept). A callee's
/// ANECI_REQUIRES context is NOT an acquisition, so `...Locked()` helpers
/// never produce edges.
void ProjectModel::BuildLockGraph(std::vector<Edge>* out_edges) const {
  std::map<std::pair<std::string, std::string>, Edge> edges;
  auto add_edge = [&](const Edge& e) { edges.emplace(std::make_pair(e.from, e.to), e); };
  for (const FunctionInfo& f : functions_)
    for (const Edge& e : f.edges) add_edge(e);

  std::vector<std::set<std::string>> trans(functions_.size());
  for (size_t i = 0; i < functions_.size(); ++i)
    trans[i] = functions_[i].acquires;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < functions_.size(); ++i) {
      for (const CallSite& c : functions_[i].calls) {
        if (!c.sync) continue;
        for (int callee : ResolveCallees(functions_[i], c))
          for (const std::string& m : trans[static_cast<size_t>(callee)])
            if (trans[i].insert(m).second) changed = true;
      }
    }
  }
  for (size_t i = 0; i < functions_.size(); ++i) {
    const FunctionInfo& f = functions_[i];
    for (const CallSite& c : f.calls) {
      if (c.held.empty()) continue;
      for (int callee : ResolveCallees(f, c))
        for (const std::string& m : trans[static_cast<size_t>(callee)])
          for (const std::string& h : c.held)
            add_edge({h, m, f.file, c.line});
    }
  }
  for (const auto& kv : edges) out_edges->push_back(kv.second);
}

void ProjectModel::CheckLockOrderCycle(std::vector<Finding>* out) const {
  std::vector<Edge> edge_list;
  BuildLockGraph(&edge_list);

  // Self-loops are recursive acquisitions; longer cycles are
  // lock-order inversions. Find one witness cycle per offending edge set
  // with a DFS over the deduplicated graph.
  std::map<std::string, std::vector<const Edge*>> adj;
  for (const Edge& e : edge_list) adj[e.from].push_back(&e);

  std::set<std::string> reported;
  for (const Edge& e : edge_list) {
    if (e.from == e.to) {
      if (reported.insert("self:" + e.from).second) {
        out->push_back(
            {e.file, e.line, "lock-order-cycle",
             "mutex '" + e.from +
                 "' is acquired while already held (recursive acquisition "
                 "of a non-recursive mutex self-deadlocks)"});
      }
    }
  }

  // DFS from each node; a back edge to a node on the current path is a
  // cycle. Each cycle is canonicalized (rotation starting at its smallest
  // node) so it is reported exactly once.
  std::vector<std::string> path;
  std::vector<const Edge*> path_edges;
  std::set<std::string> on_path;
  std::set<std::string> done;

  std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    on_path.insert(node);
    path.push_back(node);
    auto it = adj.find(node);
    if (it != adj.end()) {
      for (const Edge* e : it->second) {
        if (e->from == e->to) continue;  // self-loops reported above
        if (on_path.count(e->to)) {
          // Reconstruct the cycle from e->to forward.
          size_t start = 0;
          while (start < path.size() && path[start] != e->to) ++start;
          std::vector<std::string> cyc(path.begin() +
                                           static_cast<long>(start),
                                       path.end());
          std::vector<const Edge*> wits(
              path_edges.begin() + static_cast<long>(start),
              path_edges.end());
          wits.push_back(e);
          // Canonical rotation.
          size_t min_i = 0;
          for (size_t c = 1; c < cyc.size(); ++c)
            if (cyc[c] < cyc[min_i]) min_i = c;
          std::string key;
          for (size_t c = 0; c < cyc.size(); ++c)
            key += cyc[(min_i + c) % cyc.size()] + ";";
          if (reported.insert(key).second) {
            std::string msg = "potential deadlock: lock-order cycle ";
            for (size_t c = 0; c < cyc.size(); ++c) {
              msg += cyc[c] + " -> ";
              if (c + 1 < cyc.size())
                msg += "(" + wits[c]->file + ":" +
                       std::to_string(wits[c]->line) + ") ";
            }
            msg += cyc.front() + " (" + wits.back()->file + ":" +
                   std::to_string(wits.back()->line) +
                   "); acquire these mutexes in one global order";
            out->push_back({wits.front()->file, wits.front()->line,
                            "lock-order-cycle", msg});
          }
          continue;
        }
        if (done.count(e->to)) continue;
        path_edges.push_back(e);
        dfs(e->to);
        path_edges.pop_back();
      }
    }
    path.pop_back();
    on_path.erase(node);
    done.insert(node);
  };
  for (const auto& kv : adj)
    if (!done.count(kv.first)) dfs(kv.first);
}

std::vector<std::string> ProjectModel::lock_order_edges() const {
  std::vector<Edge> edge_list;
  BuildLockGraph(&edge_list);
  std::vector<std::string> out;
  for (const Edge& e : edge_list) out.push_back(e.from + " -> " + e.to);
  return out;
}

// --- Check: determinism-taint -----------------------------------------------

void ProjectModel::CheckDeterminismTaint(std::vector<Finding>* out) const {
  // Multi-source BFS from the deterministic entry points over the full
  // call graph (async edges included: work posted from a det path still
  // computes det-class results). Parent pointers give one witness chain.
  std::vector<int> parent(functions_.size(), -2);  // -2 unvisited, -1 root
  std::deque<int> queue;
  for (size_t i = 0; i < functions_.size(); ++i) {
    if (functions_[i].det_root) {
      parent[i] = -1;
      queue.push_back(static_cast<int>(i));
    }
  }
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    const FunctionInfo& f = functions_[static_cast<size_t>(u)];
    for (const CallSite& c : f.calls) {
      for (int v : ResolveCallees(f, c)) {
        if (parent[static_cast<size_t>(v)] != -2) continue;
        parent[static_cast<size_t>(v)] = u;
        queue.push_back(v);
      }
    }
  }
  for (size_t i = 0; i < functions_.size(); ++i) {
    if (parent[i] == -2) continue;
    const FunctionInfo& f = functions_[i];
    if (f.banned.empty()) continue;
    // Reconstruct root -> ... -> f.
    std::vector<std::string> chain;
    int cur = static_cast<int>(i);
    std::string why;
    while (cur >= 0) {
      chain.push_back(Qualified(functions_[static_cast<size_t>(cur)]));
      if (parent[static_cast<size_t>(cur)] == -1)
        why = functions_[static_cast<size_t>(cur)].det_root_why;
      cur = parent[static_cast<size_t>(cur)];
    }
    std::reverse(chain.begin(), chain.end());
    std::string path;
    for (size_t c = 0; c < chain.size(); ++c) {
      if (c > 0) path += " -> ";
      path += chain[c];
    }
    for (const BannedSite& b : f.banned) {
      out->push_back(
          {f.file, b.line, "determinism-taint",
           b.what + " is reachable from deterministic entry point '" +
               chain.front() + "' (" + why + ") via " + path +
               "; determinism-contract code must use seeded RNG "
               "(util/rng.h) and the audited clock shims"});
    }
  }
}

}  // namespace aneci::lint
