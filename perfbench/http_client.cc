#include "http_client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <cstring>

#include "bench_util.h"

namespace perfbench {

namespace {

std::string PercentEncode(const std::string& raw) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : raw) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(hex[c >> 4]);
      out.push_back(hex[c & 0xf]);
    }
  }
  return out;
}

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

}  // namespace

std::string HttpClient::Get(const std::string& sparql) {
  return "GET /sparql?query=" + PercentEncode(sparql) +
         " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
}

std::string HttpClient::PostJson(const std::string& sparql) {
  return "POST /sparql HTTP/1.1\r\nHost: perfbench\r\n"
         "Content-Type: application/sparql-query\r\n"
         "Accept: application/sparql-results+json\r\n"
         "Content-Length: " +
         std::to_string(sparql.size()) + "\r\n\r\n" + sparql;
}

bool HttpClient::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  buf_.clear();
  return true;
}

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool HttpClient::ReadMore(HttpResult* result) {
  char tmp[65536];
  const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
  if (n <= 0) return false;
  if (result->bytes_received == 0) result->first_byte_s = Now();
  result->bytes_received += static_cast<uint64_t>(n);
  buf_.append(tmp, static_cast<size_t>(n));
  return true;
}

bool HttpClient::ReadChunked(HttpResult* result) {
  size_t pos = 0;
  for (;;) {
    size_t eol;
    while ((eol = buf_.find("\r\n", pos)) == std::string::npos) {
      if (!ReadMore(result)) return false;
    }
    const size_t chunk = std::strtoull(buf_.c_str() + pos, nullptr, 16);
    pos = eol + 2;
    while (buf_.size() < pos + chunk + 2) {
      if (!ReadMore(result)) return false;
    }
    result->body.append(buf_, pos, chunk);
    pos += chunk + 2;
    if (chunk == 0) {
      buf_.erase(0, pos);
      return true;
    }
  }
}

HttpResult HttpClient::RoundTrip(const std::string& request) {
  HttpResult result;
  if (fd_ < 0 && !Connect()) {
    result.done_s = Now();
    return result;
  }
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + off, request.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      Close();
      result.done_s = Now();
      return result;
    }
    off += static_cast<size_t>(n);
  }
  auto fail = [&] {
    Close();
    result.status = 0;
    result.body.clear();
    result.done_s = Now();
    return result;
  };
  size_t head_end;
  while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (!ReadMore(&result)) return fail();
  }
  const std::string head = Lower(buf_.substr(0, head_end + 4));
  buf_.erase(0, head_end + 4);
  if (head.compare(0, 5, "http/") != 0 || head.size() < 12) return fail();
  result.status = std::atoi(head.c_str() + 9);
  const size_t clen = head.find("\r\ncontent-length:");
  if (clen != std::string::npos) {
    const size_t len = std::strtoull(head.c_str() + clen + 17, nullptr, 10);
    while (buf_.size() < len) {
      if (!ReadMore(&result)) return fail();
    }
    result.body.assign(buf_, 0, len);
    buf_.erase(0, len);
  } else if (head.find("transfer-encoding: chunked") != std::string::npos) {
    if (!ReadChunked(&result)) return fail();
  }
  if (head.find("\r\nconnection: close") != std::string::npos) Close();
  result.done_s = Now();
  return result;
}

}  // namespace perfbench
