// llamcat_cli: the command-line front end of the simulator; cli_main
// (cli/options.hpp) does the work. See --help for the vocabulary.
#include <iostream>

#include "cli/options.hpp"

int main(int argc, char** argv) {
  return llamcat::cli_main({argv + 1, argv + argc}, std::cout, std::cerr);
}
