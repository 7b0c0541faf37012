#include "source_index.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace locble::lint {

namespace {

bool ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ident_start(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::string cur;
    for (const char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    lines.push_back(cur);
    return lines;
}

/// Multi-character operators the tokenizer keeps whole. Order matters:
/// longest first, so "->" wins over "-" and "::" over ":".
const char* const kMultiOps[] = {"::", "->", "+=", "-=", "*=", "/=", "<<=",
                                 ">>=", "<<", ">>", "==", "!=", "<=", ">=",
                                 "&&", "||", "++", "--"};

bool is_keyword_not_function(const std::string& name) {
    static const char* const kw[] = {"if",     "for",      "while",  "switch",
                                     "catch",  "return",   "sizeof", "alignas",
                                     "alignof", "decltype", "new",    "delete",
                                     "static_assert", "requires", "throw",
                                     "noexcept", "assert"};
    for (const char* k : kw)
        if (name == k) return true;
    return false;
}

bool is_trailer_token(const Token& t) {
    // Tokens legal between a function's closing paren and its opening
    // brace: cv/ref qualifiers, noexcept, override/final, a trailing
    // return type, and constructor initializer-list punctuation.
    if (t.kind == Token::Kind::ident || t.kind == Token::Kind::number)
        return true;
    static const char* const ok[] = {"::", "->", "<", ">", ">>", "*", "&",
                                     "&&", ",", "(", ")", "{", "}", "[", "]",
                                     "...", ".", "=", "-", "+"};
    for (const char* o : ok)
        if (t.text == o) return true;
    return false;
}

struct FnMatch {
    std::string name;
    std::string qualifier;
    int line{0};
};

/// Does the token stream ending at `brace` (index of '{') look like a
/// function definition head? Walks backwards: optional trailer tokens, a
/// ')' matched to its '(', and the identifier before it. Constructor
/// initializer lists (`Foo::Foo(a) : x_(a), y_(b) {`) are stepped through
/// by re-entering the scan when the candidate name is preceded by ',' or
/// ':'.
bool match_function_head(const std::vector<Token>& toks, std::size_t brace,
                         FnMatch& out) {
    std::size_t j = brace;
    for (int hops = 0; hops < 8; ++hops) {  // init-list entries stepped over
        // Walk back over trailer tokens to the nearest ')'.
        int steps = 0;
        bool found_close = false;
        while (j > 0 && steps < 96) {
            --j;
            ++steps;
            const Token& t = toks[j];
            if (t.text == ")") {
                found_close = true;
                break;
            }
            if (!is_trailer_token(t)) return false;
            // An '=' or ';' or '{' before any ')' means this brace is an
            // initializer / class body / array literal, not a function.
            if (t.text == "=" || t.text == ";" || t.text == "{") return false;
        }
        if (!found_close) return false;

        // Match ')' back to its '('.
        int depth = 0;
        std::size_t open = j;
        while (true) {
            const Token& t = toks[open];
            if (t.text == ")") ++depth;
            if (t.text == "(") {
                --depth;
                if (depth == 0) break;
            }
            if (open == 0) return false;
            --open;
        }
        if (open == 0) return false;

        // The token before '(' names the function.
        std::size_t n = open - 1;
        std::string name;
        if (toks[n].kind == Token::Kind::ident) {
            name = toks[n].text;
        } else if (toks[n].text == ")" && n >= 2 && toks[n - 1].text == "(" &&
                   toks[n - 2].kind == Token::Kind::ident &&
                   toks[n - 2].text == "operator") {
            name = "operator()";
            n -= 2;
        } else {
            return false;  // operator overloads other than () are skipped
        }
        if (is_keyword_not_function(name)) return false;

        // Destructor tilde and Class:: qualification.
        std::string qualifier;
        std::size_t q = n;
        if (q > 0 && toks[q - 1].text == "~") --q;
        while (q >= 2 && toks[q - 1].text == "::" &&
               toks[q - 2].kind == Token::Kind::ident) {
            qualifier = toks[q - 2].text;
            q -= 2;
        }

        // Preceded by ',' or ':' (and not '::')? Then this paren group is a
        // constructor initializer entry like `x_(a)` — step over it and
        // look for the real parameter list further left.
        if (q > 0 && (toks[q - 1].text == "," || toks[q - 1].text == ":")) {
            j = q;  // continue scanning back from before the init entry
            continue;
        }

        out.name = name;
        out.qualifier = qualifier;
        out.line = toks[n].line;
        return true;
    }
    return false;
}

}  // namespace

std::string strip_comments_and_strings(const std::string& src) {
    std::string out(src.size(), ' ');
    enum class State { code, line_comment, block_comment, string, chr, raw_string };
    State state = State::code;
    std::string raw_close;  // ")<delim>\"" for the active raw string
    for (std::size_t i = 0; i < src.size(); ++i) {
        const char c = src[i];
        const char next = i + 1 < src.size() ? src[i + 1] : '\0';
        if (c == '\n') out[i] = '\n';
        switch (state) {
            case State::code:
                if (c == '/' && next == '/') {
                    state = State::line_comment;
                } else if (c == '/' && next == '*') {
                    state = State::block_comment;
                    ++i;
                } else if (c == 'R' && next == '"' &&
                           (i == 0 || !ident_char(src[i - 1]))) {
                    // R"<delim>( ... )<delim>"
                    std::size_t open = src.find('(', i + 2);
                    if (open == std::string::npos) { out[i] = c; break; }
                    raw_close = ')';
                    raw_close += src.substr(i + 2, open - (i + 2));
                    raw_close += '"';
                    out[i] = c;
                    i = open;  // literal body starts after '('
                    state = State::raw_string;
                } else if (c == '"' && (i == 0 || src[i - 1] != '\\')) {
                    state = State::string;
                } else if (c == '\'' && (i == 0 || !ident_char(src[i - 1]))) {
                    // ident check skips digit separators like 1'000'000
                    state = State::chr;
                } else {
                    out[i] = c;
                }
                break;
            case State::line_comment:
                if (c == '\n') state = State::code;
                break;
            case State::block_comment:
                if (c == '*' && next == '/') {
                    ++i;
                    state = State::code;
                }
                break;
            case State::string:
                if (c == '\\') ++i;
                else if (c == '"') state = State::code;
                break;
            case State::chr:
                if (c == '\\') ++i;
                else if (c == '\'') state = State::code;
                break;
            case State::raw_string:
                if (src.compare(i, raw_close.size(), raw_close) == 0) {
                    i += raw_close.size() - 1;
                    state = State::code;
                }
                break;
        }
    }
    return out;
}

std::string trim(const std::string& s) {
    std::size_t a = s.find_first_not_of(" \t");
    if (a == std::string::npos) return "";
    std::size_t b = s.find_last_not_of(" \t");
    return s.substr(a, b - a + 1);
}

std::string normalize_line(const std::string& s) {
    std::string out;
    bool in_ws = true;  // leading whitespace dropped
    for (const char c : s) {
        if (c == ' ' || c == '\t') {
            if (!in_ws) out += ' ';
            in_ws = true;
        } else {
            out += c;
            in_ws = false;
        }
    }
    while (!out.empty() && out.back() == ' ') out.pop_back();
    return out;
}

bool is_allowed(const std::vector<std::string>& raw_lines, int line_no,
                const std::string& rule) {
    for (int l = line_no - 1; l <= line_no; ++l) {
        if (l < 1 || l > static_cast<int>(raw_lines.size())) continue;
        const std::string& text = raw_lines[static_cast<std::size_t>(l - 1)];
        std::size_t tag = text.find("locble-lint:");
        if (tag == std::string::npos) continue;
        std::size_t open = text.find("allow(", tag);
        if (open == std::string::npos) continue;
        std::size_t close = text.find(')', open);
        if (close == std::string::npos) continue;
        std::stringstream list(text.substr(open + 6, close - open - 6));
        std::string item;
        while (std::getline(list, item, ','))
            if (trim(item) == rule) return true;
    }
    return false;
}

FileIndex build_file_index(const std::string& path, const std::string& contents) {
    FileIndex fi;
    fi.path = path;
    fi.raw_lines = split_lines(contents);
    const std::string stripped = strip_comments_and_strings(contents);
    fi.code_lines = split_lines(stripped);

    // Includes come from the raw lines: the stripped text blanks "target".
    for (std::size_t i = 0; i < fi.raw_lines.size(); ++i) {
        const std::string& raw = fi.raw_lines[i];
        std::size_t p = raw.find_first_not_of(" \t");
        if (p == std::string::npos || raw[p] != '#') continue;
        p = raw.find_first_not_of(" \t", p + 1);
        if (p == std::string::npos || raw.compare(p, 7, "include") != 0) continue;
        p = raw.find_first_not_of(" \t", p + 7);
        if (p == std::string::npos) continue;
        const char open = raw[p];
        if (open != '"' && open != '<') continue;
        const char close = open == '"' ? '"' : '>';
        const std::size_t end = raw.find(close, p + 1);
        if (end == std::string::npos) continue;
        fi.includes.push_back({static_cast<int>(i) + 1,
                               raw.substr(p + 1, end - p - 1), open == '<'});
    }

    // Tokenize the stripped text.
    int line = 1;
    for (std::size_t i = 0; i < stripped.size();) {
        const char c = stripped[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (c == ' ' || c == '\t' || c == '\r') {
            ++i;
            continue;
        }
        if (ident_start(c)) {
            std::size_t j = i + 1;
            while (j < stripped.size() && ident_char(stripped[j])) ++j;
            fi.tokens.push_back({Token::Kind::ident, stripped.substr(i, j - i), line});
            i = j;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
            std::size_t j = i + 1;
            while (j < stripped.size() &&
                   (ident_char(stripped[j]) || stripped[j] == '.'))
                ++j;
            fi.tokens.push_back({Token::Kind::number, stripped.substr(i, j - i), line});
            i = j;
            continue;
        }
        bool matched = false;
        for (const char* op : kMultiOps) {
            const std::size_t len = std::char_traits<char>::length(op);
            if (stripped.compare(i, len, op) == 0) {
                fi.tokens.push_back({Token::Kind::punct, op, line});
                i += len;
                matched = true;
                break;
            }
        }
        if (matched) continue;
        fi.tokens.push_back({Token::Kind::punct, std::string(1, c), line});
        ++i;
    }

    // Function definitions: walk the token stream tracking brace depth.
    // Function bodies do not nest in C++ (lambdas inside a body are
    // deliberately folded into their enclosing function), so one active
    // span suffices.
    int depth = 0;
    bool in_function = false;
    int fn_open_depth = 0;
    std::size_t current = 0;  // index into fi.functions
    for (std::size_t ti = 0; ti < fi.tokens.size(); ++ti) {
        const Token& t = fi.tokens[ti];
        if (t.text == "{") {
            if (!in_function) {
                FnMatch m;
                if (match_function_head(fi.tokens, ti, m)) {
                    FunctionDef def;
                    def.name = m.name;
                    def.qualifier = m.qualifier;
                    def.open_line = t.line;
                    def.body_begin = ti;
                    fi.functions.push_back(def);
                    current = fi.functions.size() - 1;
                    in_function = true;
                    fn_open_depth = depth;
                }
            }
            ++depth;
        } else if (t.text == "}") {
            --depth;
            if (in_function && depth == fn_open_depth) {
                fi.functions[current].close_line = t.line;
                fi.functions[current].body_end = ti;
                in_function = false;
            }
        }
    }
    // Unterminated function (truncated file): close at EOF.
    if (in_function) {
        fi.functions[current].close_line = line;
        fi.functions[current].body_end =
            fi.tokens.empty() ? 0 : fi.tokens.size() - 1;
    }
    return fi;
}

const FunctionDef* enclosing_function(const FileIndex& fi, int line) {
    const FunctionDef* best = nullptr;
    for (const FunctionDef& f : fi.functions) {
        if (line < f.open_line || line > f.close_line) continue;
        if (best == nullptr || f.open_line > best->open_line) best = &f;
    }
    return best;
}

}  // namespace locble::lint
