let default_dir = "_cache"
