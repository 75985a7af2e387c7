//! `pmkm` binary: thin shell over [`pmkm_cli::dispatch`].

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprint!("{}", pmkm_cli::USAGE);
        std::process::exit(2);
    };
    if command == "help" || command == "--help" || command == "-h" {
        print!("{}", pmkm_cli::USAGE);
        return;
    }
    let args = pmkm_cli::Args::parse(argv);
    let mut stdout = std::io::stdout();
    if let Err(e) = pmkm_cli::dispatch(&command, &args, &mut stdout) {
        eprintln!("pmkm {command}: {e}");
        std::process::exit(e.exit_code());
    }
}
