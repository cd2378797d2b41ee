#include "graph/io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "common/check.hpp"
#include "graph/builder.hpp"

namespace arbods {

namespace {

// Whitespace-separated tokens straight off the stream buffer; a token that
// starts with '#' comments out the rest of its line. Tokens are numbered
// from 1 and lines are counted, so a diagnostic can point at the offending
// token as "line L, token T".
class TokenReader {
 public:
  explicit TokenReader(std::istream& is) : buf_(*is.rdbuf()) {}

  /// The next non-comment token, empty at end of input.
  std::string_view next() {
    tok_.clear();
    int c = buf_.sgetc();
    while (true) {
      while (c != EOF && std::isspace(c)) {
        if (c == '\n') ++line_;
        c = buf_.snextc();
      }
      if (c != '#') break;
      while (c != EOF && c != '\n') c = buf_.snextc();
    }
    while (c != EOF && !std::isspace(c)) {
      tok_.push_back(static_cast<char>(c));
      c = buf_.snextc();
    }
    if (!tok_.empty()) ++index_;
    return tok_;
  }

  /// The next token as a T; CheckError for end of input, a token that is
  /// not entirely a decimal integer, or one that overflows T.
  template <typename T>
  T number(const char* what) {
    const std::string_view tok = next();
    ARBODS_CHECK_MSG(!tok.empty(),
                     where() << "unexpected end of input reading " << what);
    T value{};
    const auto [end, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), value);
    ARBODS_CHECK_MSG(ec != std::errc::result_out_of_range,
                     where() << what << " '" << tok << "' is out of range");
    ARBODS_CHECK_MSG(ec == std::errc() && end == tok.data() + tok.size(),
                     where() << what << " '" << tok << "' is not an integer");
    return value;
  }

  /// Raises CheckError unless only whitespace and comments remain.
  void expect_end() {
    const std::string_view tok = next();
    ARBODS_CHECK_MSG(tok.empty(), where() << "unexpected trailing token '"
                                          << tok
                                          << "' after the last expected one");
  }

  /// "line L, token T: " for the last token read, or for the position
  /// where input ended when the last read found none.
  std::string where() const {
    return "line " + std::to_string(line_) + ", token " +
           std::to_string(tok_.empty() ? index_ + 1 : index_) + ": ";
  }

  std::string_view last() const { return tok_; }

 private:
  std::streambuf& buf_;
  std::string tok_;
  std::size_t index_ = 0;
  std::size_t line_ = 1;
};

// Up-front edge reservation is capped so a corrupt edge count cannot ask
// for more memory than the file could ever fill; longer lists just grow.
constexpr std::size_t kMaxEdgeReserve = std::size_t{1} << 24;

Graph read_graph(TokenReader& in) {
  const auto n = in.number<NodeId>("node count");
  const auto m = in.number<std::size_t>("edge count");
  GraphBuilder b(n);
  b.reserve_edges(std::min(m, kMaxEdgeReserve));
  for (std::size_t i = 0; i < m; ++i) {
    NodeId ends[2];
    for (NodeId& end : ends) {
      end = in.number<NodeId>("edge endpoint");
      ARBODS_CHECK_MSG(end < n, in.where() << "edge endpoint '" << in.last()
                                           << "' is out of range n=" << n);
    }
    ARBODS_CHECK_MSG(ends[0] != ends[1], in.where() << "edge " << i
                                                    << " is a self-loop at "
                                                    << ends[0]);
    b.add_edge(ends[0], ends[1]);
  }
  return std::move(b).build();
}
}  // namespace

void write_graph(std::ostream& os, const Graph& g) {
  os << g.num_nodes() << " " << g.num_edges() << "\n";
  for (const Edge& e : g.edges()) os << e.u << " " << e.v << "\n";
}

Graph read_graph(std::istream& is) {
  TokenReader in(is);
  Graph g = read_graph(in);
  in.expect_end();
  return g;
}

void write_weighted_graph(std::ostream& os, const WeightedGraph& wg) {
  write_graph(os, wg.graph());
  os << "weights\n";
  for (NodeId v = 0; v < wg.num_nodes(); ++v) os << wg.weight(v) << "\n";
}

WeightedGraph read_weighted_graph(std::istream& is) {
  TokenReader in(is);
  Graph g = read_graph(in);
  const std::string_view marker = in.next();
  ARBODS_CHECK_MSG(marker == "weights", in.where()
                                            << "expected 'weights' marker, "
                                               "got '" << marker << "'");
  std::vector<Weight> w(g.num_nodes());
  for (Weight& weight : w) weight = in.number<Weight>("weight");
  in.expect_end();
  return WeightedGraph(std::move(g), std::move(w));
}

void save_graph(const std::string& path, const Graph& g) {
  std::ofstream os(path);
  ARBODS_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  write_graph(os, g);
  ARBODS_CHECK_MSG(os.good(), "write to " << path << " failed");
}

Graph load_graph(const std::string& path) {
  std::ifstream is(path);
  ARBODS_CHECK_MSG(is.good(), "cannot open " << path);
  return read_graph(is);
}

}  // namespace arbods
